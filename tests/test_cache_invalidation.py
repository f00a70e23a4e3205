"""Invalidation correctness: a cached federation never serves stale rows.

The property test drives a cached and an uncached federation through
the same sequence of operations — queries, schema changes (detected by
the §4.9 tracker), ETL data refreshes (epoch bumps) — and asserts the
cached answers stay byte-identical to the uncached ones after every
step. A separate class pins the opt-in contract: with ``cache=False``
(the default) no cache object is ever allocated.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.federation import GridFederation
from repro.engine.database import Database
from repro.metadata.dictionary import DataDictionary
from repro.net.network import Network
from repro.net.simclock import SimClock
from repro.unity.driver import UnityDriver
from repro.warehouse.etl import ETLJob, ETLPipeline

Q_LOCAL = "SELECT id, val FROM facts WHERE id <= 500 ORDER BY id"
Q_DISTRIBUTED = (
    "SELECT f.id, d.label FROM facts f JOIN dims d ON f.dim_id = d.k "
    "WHERE f.id <= 500 ORDER BY f.id"
)
QUERIES = (Q_LOCAL, Q_DISTRIBUTED)


class World:
    """One federation (cached or not) plus its ETL refresh machinery."""

    def __init__(self, cache: bool):
        self.fed = GridFederation()
        self.a = self.fed.create_server("srv-a", "a.cern.ch", cache=cache)
        self.b = self.fed.create_server("srv-b", "b.cern.ch", cache=cache)

        self.facts = Database("facts_db", "mysql")
        self.facts.execute(
            "CREATE TABLE FACTS (ID INT PRIMARY KEY, DIM_ID INT, VAL DOUBLE)"
        )
        dims = Database("dims_db", "mssql")
        dims.execute(
            "CREATE TABLE DIMS (K INT PRIMARY KEY, LABEL NVARCHAR(16))"
        )
        for k, label in enumerate(("alpha", "beta", "gamma")):
            dims.execute(f"INSERT INTO DIMS VALUES ({k}, '{label}')")
        self.fed.attach_database(self.a, self.facts, logical_names={"FACTS": "facts"})
        self.fed.attach_database(self.b, dims, logical_names={"DIMS": "dims"})

        # an unfederated operational source feeding facts via ETL
        self.source = Database("ops_src", "oracle")
        self.source.execute(
            "CREATE TABLE SRC (ID INT PRIMARY KEY, DIM_ID INT, VAL DOUBLE)"
        )
        self.fed.add_host("ops.cern.ch", tier=1)
        self.pipeline = ETLPipeline(
            self.fed.network,
            self.fed.clock,
            self.facts,
            "a.cern.ch",
            epochs=self.fed.epochs,  # None in the uncached world
        )
        self.next_id = 0
        self.next_col = 0
        self.seed_rows(5)

    def seed_rows(self, n: int) -> None:
        for _ in range(n):
            i = self.next_id
            self.source.execute(
                f"INSERT INTO SRC VALUES ({i}, {i % 3}, {i * 1.25})"
            )
            self.next_id += 1

    def etl_refresh(self, n_rows: int) -> None:
        """New source rows streamed into the federated facts database."""
        self.seed_rows(n_rows)
        job = ETLJob(
            source=self.source,
            source_host="ops.cern.ch",
            query="SELECT id, dim_id, val FROM src",
            target_table="FACTS",
            target_columns=["ID", "DIM_ID", "VAL"],
        )
        self.pipeline.run_incremental(job, "id")

    def schema_change(self) -> None:
        """DDL on the live facts database, noticed by the §4.9 tracker."""
        self.facts.execute(f"ALTER TABLE FACTS ADD COLUMN EXTRA_{self.next_col} INT")
        self.next_col += 1
        self.a.service.tracker.poll()

    def run_queries(self):
        return [self.a.service.execute(sql).rows for sql in QUERIES]


operations = st.lists(
    st.sampled_from(["query", "etl_small", "etl_big", "schema"]),
    max_size=6,
)


class TestInvalidationProperty:
    @given(operations)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cached_rows_always_match_uncached(self, ops):
        cached = World(cache=True)
        plain = World(cache=False)
        for op in ops:
            for world in (cached, plain):
                if op == "etl_small":
                    world.etl_refresh(2)
                elif op == "etl_big":
                    world.etl_refresh(7)
                elif op == "schema":
                    world.schema_change()
            got = cached.run_queries()
            expected = plain.run_queries()
            assert got == expected, op
            # warm repeat in the cached world stays self-consistent
            assert cached.run_queries() == expected

    def test_schema_change_invalidates_only_the_changed_database(self):
        world = World(cache=True)
        world.run_queries()
        world.run_queries()  # warm both levels
        epochs_before = world.fed.epochs.as_dict()["epochs"]
        world.schema_change()
        epochs_after = world.fed.epochs.as_dict()["epochs"]
        assert epochs_after.get("facts_db", 0) == epochs_before.get("facts_db", 0) + 1
        assert epochs_after.get("dims_db", 0) == epochs_before.get("dims_db", 0)
        # the facts entries were flushed from server A's sub cache...
        a_tags = {e.tag for e in world.a.service.cache.sub._entries.values()}
        assert "facts_db" not in a_tags
        # ...while server B's dims entries survive (only the changed
        # database's entries are invalidated)
        b_tags = {e.tag for e in world.b.service.cache.sub._entries.values()}
        assert "dims_db" in b_tags


class TestCacheOffAllocatesNothing:
    def test_service_and_federation_hold_no_cache_objects(self):
        fed = GridFederation()
        handle = fed.create_server("srv", "host.cern.ch")
        service = handle.service
        assert service.cache is None
        assert service.tracker.epochs is None
        assert fed.epochs is None

    def test_unity_driver_default_has_no_cache(self):
        driver = UnityDriver(DataDictionary(), None, clock=SimClock())
        assert driver.cache is None

    def test_etl_pipeline_default_has_no_epochs(self):
        net = Network()
        net.add_host("h", 1)
        pipeline = ETLPipeline(net, SimClock(), Database("t", "mysql"), "h")
        assert pipeline.epochs is None
