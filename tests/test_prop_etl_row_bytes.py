"""Property: every ETL extract's row sizes are exact.

``repro.warehouse.etl.extract`` sizes a result row once: a row that an
ETL load landed in the source database keeps the size recorded at that
load, and any other row is sized with ``estimate_row_bytes``. Whatever
happened to the database in between (a second load into the same table,
a mart table dropped and re-created, a load that coerced its rows or
raised half-way, an ``ALTER TABLE … ADD COLUMN``), each ``Extract``'s
``sizes`` and ``nbytes`` must equal the sizes computed afresh.
"""

import gc
import weakref
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common import DeterministicRNG
from repro.common.errors import IntegrityError
from repro.engine.database import Database
from repro.engine.storage import estimate_row_bytes
from repro.hep import build_tier_sources, etl_jobs_for_source
from repro.marts import MartSet, materialize
from repro.net import Network, SimClock
from repro.warehouse import Warehouse, etl
from repro.warehouse.etl import ETLJob, ETLPipeline

VIEW = "v_event_wide"


def assert_exact(ex) -> None:
    want = [estimate_row_bytes(row) for row in ex.rows]
    assert ex.sizes == want, ex.query
    assert ex.nbytes == sum(want), ex.query


@contextmanager
def checked_extracts():
    """Check each :class:`Extract` made inside the block as it is made;
    yields the list of their queries. An extract is not kept past its
    use, so its rows can die and their ids be reused, as in a run."""
    queries = []
    real = etl.extract

    def spy(job):
        ex = real(job)
        assert_exact(ex)
        queries.append(ex.query)
        return ex

    with mock.patch.object(etl, "extract", spy), mock.patch.object(materialize, "extract", spy):
        yield queries


def mart_set(warehouse, n_marts: int) -> MartSet:
    marts = MartSet(warehouse)
    for i, vendor in enumerate(["mysql", "sqlite", "mssql"][:n_marts]):
        marts.add_mart(Database(f"mart_{vendor}", vendor), f"mart{i}")
    return marts


# -- the paper's shape: sources -> warehouse -> marts -----------------------------------


@settings(max_examples=40, deadline=None)
@given(
    nvar=st.integers(min_value=1, max_value=4),
    events=st.integers(min_value=0, max_value=6),
    two_sources=st.booleans(),
    wide_vars=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    direct=st.booleans(),
    n_marts=st.integers(min_value=1, max_value=3),
    rounds=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=3),
)
def test_warehouse_and_mart_extracts_are_exact(
    nvar, events, two_sources, wide_vars, direct, n_marts, rounds, seed
):
    net = Network()
    net.add_host("tier1", 1)
    net.add_host("tier2", 2)
    sources = build_tier_sources(
        DeterministicRNG("row-bytes", seed), n_runs=2, events_per_run=events, nvar=nvar
    )
    with checked_extracts() as queries:
        wh = Warehouse(net, SimClock(), nvar=nvar, wide_vars=wide_vars)
        for job in etl_jobs_for_source(sources[0], "tier1", nvar):
            wh.load(job, direct)
        if two_sources:  # a second job loads event_fact
            wh.load(etl_jobs_for_source(sources[1], "tier2", nvar)[0], direct)
        marts = mart_set(wh, n_marts)
        # a second round drops and re-creates every mart table
        for _ in range(rounds):
            marts.replicate([VIEW, "v_run_summary"])
        for db, host in marts.marts:
            etl.extract(ETLJob(db, host, f"SELECT * FROM {VIEW}", VIEW))
    assert len(queries) > n_marts * rounds


def test_replicated_view_reuses_the_load_sizes():
    """A full-width view returns the tuples the warehouse load stored:
    its extract sizes none of them again; a subset view sizes each."""
    net = Network()
    net.add_host("tier1", 1)
    source, _ = build_tier_sources(DeterministicRNG("row-bytes"), 2, 5, 3)
    job = etl_jobs_for_source(source, "tier1", 3)[0]
    for wide_vars, resized in ((None, False), (2, True)):
        wh = Warehouse(net, SimClock(), nvar=3, wide_vars=wide_vars)
        wh.load(job)
        view_job = ETLJob(wh.db, wh.host, f"SELECT * FROM {VIEW}", VIEW)
        with mock.patch.object(etl, "estimate_row_bytes", wraps=estimate_row_bytes) as sizer:
            ex = etl.extract(view_job)
        assert ex.rows
        assert sizer.call_count == (len(ex.rows) if resized else 0)
        assert_exact(ex)


# -- a generic table, step by step ------------------------------------------------------

SOURCE_DDL = "CREATE TABLE s (id INTEGER PRIMARY KEY, x DOUBLE, tag VARCHAR(6), n INTEGER)"
#: a target that stores the rows as given, and one whose DOUBLE ``n``
#: coerces every int to a new float, so the stored tuples differ
TARGET_DDL = {
    "as given": "CREATE TABLE t (id INTEGER PRIMARY KEY, x DOUBLE, tag VARCHAR(6), n INTEGER)",
    "coerced": "CREATE TABLE t (id INTEGER PRIMARY KEY, x DOUBLE, tag VARCHAR(6), n DOUBLE)",
}
#: reads of the target: stored tuples (all columns, in order, filtered or
#: not) and new tuples (a permutation, and one of other values whose
#: sizes differ from the stored rows')
TARGET_READS = [
    "SELECT * FROM t",
    "SELECT id, x, tag, n FROM t WHERE id >= 3",
    "SELECT n, tag, x, id FROM t",
    "SELECT id, tag, n, id FROM t",
]


def copy_rows(columns, rows):
    """A transform whose rows are new tuples of the same values."""
    return columns, [(*row,) for row in rows]


source_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
        st.one_of(st.none(), st.text(max_size=6)),
        st.one_of(st.none(), st.integers(min_value=-(10**6), max_value=10**6)),
    ),
    max_size=10,
)

steps = st.lists(
    st.one_of(
        # two loads of overlapping ranges repeat a key: the batch raises,
        # the per-row fallback lands the rows before the repeat and raises
        st.tuples(
            st.just("load"),
            st.integers(min_value=0, max_value=10),
            st.integers(min_value=0, max_value=10),
            st.booleans(),
            st.booleans(),
        ),
        st.tuples(st.just("read"), st.sampled_from(TARGET_READS)),
        st.tuples(st.just("replicate")),
        st.tuples(st.just("read mart")),
        st.tuples(st.just("alter")),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(rows=source_rows, target=st.sampled_from(sorted(TARGET_DDL)), steps=steps)
# the copies a coerced load recorded die with their extract; the permuted
# read's new tuples then reuse their ids, but hold floats for those ints
@example(
    rows=[(None, None, 1), (None, None, 2), (None, None, 3)],
    target="coerced",
    steps=[("load", 0, 3, False, True), ("read", "SELECT n, tag, x, id FROM t")],
)
def test_step_by_step_extracts_are_exact(rows, target, steps):
    net = Network()
    for host in ("src", "mid"):
        net.add_host(host, 1)
    clock = SimClock()
    src = Database("src", "oracle")
    src.execute(SOURCE_DDL)
    src.catalog.get_table("s").append_rows([(i, *row) for i, row in enumerate(rows)])
    mid = Database("mid", "oracle")
    mid.execute(TARGET_DDL[target])
    mid.execute("CREATE VIEW v AS SELECT * FROM t")
    pipeline = ETLPipeline(net, clock, mid, "mid")
    marts = mart_set(SimpleNamespace(db=mid, network=net, clock=clock, host="mid"), 1)
    mart = marts.marts[0][0]
    added = 0
    with checked_extracts() as queries:
        for step in steps:
            if step[0] == "load":
                _, lo, hi, direct, copied = step
                query = f"SELECT * FROM s WHERE id >= {lo} AND id < {hi}"
                job = ETLJob(src, "src", query, "t", transform=copy_rows if copied else None)
                try:
                    pipeline.run(job, direct)
                except IntegrityError:
                    pass  # a repeated key: what landed stays
            elif step[0] == "read":
                etl.extract(ETLJob(mid, "mid", step[1], "t"))
            elif step[0] == "replicate":
                # drops and re-creates the mart's table v
                marts.replicate(["v"])
            elif step[0] == "read mart" and mart.catalog.has_table("v"):
                etl.extract(ETLJob(mart, "mart0", "SELECT * FROM v", "v"))
            elif step[0] == "alter":
                # rebuilds every stored row one value wider
                mid.execute(f"ALTER TABLE t ADD COLUMN extra{added} INTEGER DEFAULT {added}")
                added += 1
    assert len(queries) >= sum(step[0] in ("read", "replicate") for step in steps)


def test_a_load_that_raises_records_nothing():
    net = Network()
    for host in ("src", "mid"):
        net.add_host(host, 1)
    src = Database("src", "oracle")
    src.execute(SOURCE_DDL)
    src.catalog.get_table("s").append_rows([(1, 1.5, "a", 1), (2, 2.5, "b", 2)])
    mid = Database("mid", "oracle")
    mid.execute(TARGET_DDL["as given"])
    mid.catalog.get_table("t").append_rows([(2, 0.5, "z", 0)])
    pipeline = ETLPipeline(net, SimClock(), mid, "mid")
    with pytest.raises(IntegrityError):
        pipeline.run(ETLJob(src, "src", "SELECT * FROM s", "t"))
    # the per-row fallback landed row 1 before the repeated key 2
    assert mid.catalog.get_table("t").row_count == 2
    assert mid not in etl._SIZED


# -- lifetime ---------------------------------------------------------------------------


def etl_marts_pass(source):
    """A small ``etl_marts`` pass: source -> fresh warehouse -> two fresh marts."""
    net = Network()
    net.add_host("tier1", 1)
    wh = Warehouse(net, SimClock(), nvar=3)
    wh.load(etl_jobs_for_source(source, "tier1", 3)[0])
    marts = mart_set(wh, 2)
    marts.replicate([VIEW])
    return wh, marts


def test_size_record_dies_with_its_databases():
    source, _ = build_tier_sources(DeterministicRNG("lifetime"), 2, 5, 3)
    gc.collect()  # databases earlier tests dropped
    before = len(etl._SIZED)
    wh, marts = etl_marts_pass(source)
    databases = [wh.db] + [db for db, _host in marts.marts]
    assert all(db in etl._SIZED for db in databases)
    refs = [weakref.ref(db) for db in databases]
    del wh, marts, databases
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(etl._SIZED) == before
    # pass after pass, the record holds at most the live pass's databases
    peak = 0
    for _ in range(50):
        wh, marts = etl_marts_pass(source)
        peak = max(peak, len(etl._SIZED) - before)
        del wh, marts
    assert peak <= 3
