"""Robustness properties: the parser and engine fail *predictably*."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common import DeterministicRNG, ReproError
from repro.common.errors import SQLSyntaxError
from repro.engine import Database
from repro.sql.parser import parse_statement


class TestParserRobustness:
    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_arbitrary_text_never_crashes_unpredictably(self, text):
        """Any input either parses or raises SQLSyntaxError — nothing else."""
        try:
            parse_statement(text)
        except SQLSyntaxError:
            pass

    @given(st.text(alphabet="SELECT FROWHER()*,;'\"`[]<>=!?.0123456789abc ", max_size=60))
    @settings(max_examples=300)
    def test_sql_shaped_garbage(self, text):
        try:
            parse_statement(text)
        except SQLSyntaxError:
            pass

    @given(st.binary(max_size=40))
    def test_decoded_binary_garbage(self, blob):
        text = blob.decode("latin-1")
        try:
            parse_statement(text)
        except SQLSyntaxError:
            pass


class TestEngineRobustness:
    @given(st.text(max_size=60))
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    def test_execute_raises_only_repro_errors(self, text):
        """Database.execute surfaces only the library's error hierarchy."""
        db = Database("rb", "mysql")
        db.execute("CREATE TABLE t (a INT)")
        try:
            db.execute(text)
        except ReproError:
            pass


class TestUnionProperties:
    @given(
        st.lists(st.integers(-50, 50), max_size=30),
        st.integers(-50, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_union_all_of_split_equals_whole(self, values, split):
        """Splitting a table at any threshold and concatenating the two
        halves' rows returns exactly the original multiset."""
        db = Database("u", "generic")
        db.execute("CREATE TABLE t (v INT)")
        for v in values:
            db.execute(f"INSERT INTO t VALUES ({v})")
        whole = sorted(db.execute("SELECT v FROM t").rows)
        below = db.execute(f"SELECT v FROM t WHERE v < {split}").rows
        above = db.execute(f"SELECT v FROM t WHERE v >= {split}").rows
        assert sorted(below + above) == whole


class TestIncrementalETLProperty:
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_incremental_batches_equal_one_full_load(self, batch_sizes):
        """Loading runs one batch at a time through the watermark pipeline
        always produces the same warehouse as one big load."""
        from repro.hep import (
            create_source_schema,
            etl_jobs_for_source,
            generate_ntuple,
            populate_source,
        )
        from repro.net import Network, SimClock
        from repro.warehouse import Warehouse

        rng = DeterministicRNG(f"prop-{batch_sizes}")
        net = Network()
        net.add_host("tier1", 1)
        clock = SimClock()
        source = Database("src", "oracle")
        create_source_schema(source)
        wh_inc = Warehouse(net, clock, nvar=3)
        job = etl_jobs_for_source(source, "tier1", 3)[0]

        next_id = 1
        for run_id, size in enumerate(batch_sizes, start=1):
            populate_source(
                source,
                rng.fork(f"b{run_id}"),
                {run_id: generate_ntuple(rng.fork(f"nt{run_id}"), size, 3)},
                first_event_id=next_id,
            )
            next_id += size + 20
            wh_inc.pipeline.run_incremental(job, "e.event_id")

        wh_full = Warehouse(net, clock, nvar=3)
        wh_full.pipeline.run(job)
        a = wh_inc.db.execute(
            "SELECT event_id, var_0, var_1, var_2 FROM event_fact ORDER BY event_id"
        ).rows
        b = wh_full.db.execute(
            "SELECT event_id, var_0, var_1, var_2 FROM event_fact ORDER BY event_id"
        ).rows
        assert a == b
