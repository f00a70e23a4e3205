"""The shared sub-query pipeline and its per-query QueryContext."""

import pytest

from repro.core import GridFederation
from repro.core.pipeline import QueryContext, SubQueryPipeline
from repro.driver.directory import Directory
from repro.engine import Database
from repro.metadata import DataDictionary
from repro.net import costs
from repro.net.simclock import SimClock
from repro.sql.parser import parse_select
from repro.unity import UnityDriver, decompose


def make_events_db(name, vendor="mysql", n=10):
    db = Database(name, vendor)
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, ENERGY DOUBLE)")
    for i in range(n):
        db.execute(f"INSERT INTO EVT VALUES ({i}, {i * 1.0})")
    return db


def replicated(**server_options):
    """'events' on db1 (mysql) and db2 (sqlite) behind one server."""
    fed = GridFederation()
    server = fed.create_server("jc1", "pc1", **server_options)
    for name, vendor, host in (("primary_mart", "mysql", "db1"),
                               ("replica_mart", "sqlite", "db2")):
        fed.attach_database(
            server, make_events_db(name, vendor), db_host=host,
            logical_names={"EVT": "events"},
        )
    return fed, server.service


class TestComposition:
    def test_off_layers_are_absent(self):
        _fed, service = replicated()
        pipeline = service.pipeline
        # only the replica walk wraps the router; nothing else is in the chain
        assert pipeline.run is not service.router
        bare = SubQueryPipeline(service.router)
        assert bare.run is service.router
        assert bare.context().deadline_at_ms is None

    def test_driver_without_layers_runs_the_router_directly(self):
        driver = UnityDriver(DataDictionary(), Directory())
        assert driver.pipeline.run is driver.router
        assert driver.router.force_jdbc

    def test_no_per_query_state_on_shared_objects(self):
        _fed, service = replicated(cache=True, resilience=True)
        service.execute("SELECT COUNT(*) FROM events")
        assert not hasattr(service.router, "metadata_cached")
        assert not hasattr(service.resilience, "deadline_at_ms")


class TestQueryContext:
    def test_each_query_gets_its_own_deadline(self, monkeypatch):
        monkeypatch.setattr(costs, "RETRY_DEADLINE_MS", 500.0)
        fed, service = replicated(resilience=True)
        first = service.pipeline.context()
        fed.clock.advance_ms(100.0)
        second = service.pipeline.context(("x",), allow_partial=True)
        assert first.deadline_at_ms == second.deadline_at_ms - 100.0
        assert second.deadline_at_ms == fed.clock.now_ms + 500.0
        assert (second.params, second.allow_partial) == (("x",), True)
        assert first.provenance is not second.provenance

    def test_provenance_names_the_replica_that_served(self):
        fed, service = replicated()
        fed.network.fail_host("db1")
        answer = service.execute("SELECT COUNT(*) FROM events")
        assert answer.rows == [(10,)]
        (trace,) = answer.traces
        assert (trace.database, trace.replica_host) == ("replica_mart", "db2")
        assert trace.end_ms > trace.start_ms

    def test_failover_rows_are_not_cached(self):
        fed, service = replicated(cache=True)
        fed.network.fail_host("db1")
        service.execute("SELECT COUNT(*) FROM events")
        assert len(service.cache.sub) == 0


class TestClockDefaults:
    def test_a_clock_less_driver_gets_a_clock(self):
        driver = UnityDriver(DataDictionary(), Directory())
        assert isinstance(driver.clock, SimClock)
        assert driver.router.clock is driver.clock

    def test_lone_parallel_branch_runs_in_place(self):
        clock = SimClock()
        clock.advance_ms(0.1)
        assert clock.run_parallel([lambda: clock.advance_ms(0.2)]) == pytest.approx(0.2)
        assert clock.now_ms == 0.1 + 0.2


class TestMetadataParseOnFailover:
    """The replica's XSpec metadata parse is charged even when the plan
    (and the primary's metadata) came from the plan cache."""

    SQL = "SELECT COUNT(*) FROM events WHERE energy > ?"

    @pytest.fixture
    def parses(self, monkeypatch):
        marker = 1234.5
        monkeypatch.setattr(costs, "UNITY_METADATA_PARSE_MS", marker)
        charged = []
        original = SimClock.advance_ms

        def advance_ms(clock, ms):
            charged.append(ms)
            original(clock, ms)

        monkeypatch.setattr(SimClock, "advance_ms", advance_ms)

        def count(run):
            charged.clear()
            run()
            return charged.count(marker)

        return count

    def test_cold_failover_parses_primary_and_replica(self, parses):
        fed, service = replicated(force_jdbc=True, cache=True)
        fed.network.fail_host("db1")
        assert parses(lambda: service.execute(self.SQL, (1.0,))) == 2

    def test_warm_plan_failover_parses_only_the_replica(self, parses):
        fed, service = replicated(force_jdbc=True, cache=True)
        service.execute(self.SQL, (1.0,))
        assert parses(lambda: service.execute(self.SQL, (2.0,))) == 0
        fed.network.fail_host("db1")
        assert parses(lambda: service.execute(self.SQL, (3.0,))) == 1

    def test_context_parsed_set_skips_the_charge(self, parses):
        _fed, service = replicated(force_jdbc=True)
        plan = service.explain("SELECT COUNT(*) FROM events")
        assert plan["subqueries"][0]["route"] == "jdbc"
        sub = decompose(
            parse_select("SELECT COUNT(*) FROM events"), service.dictionary
        ).subqueries[0]
        warm = QueryContext(parsed=frozenset({sub.location.database_name}))
        assert parses(lambda: service.router(sub, warm)) == 0
        assert parses(lambda: service.router(sub, QueryContext())) == 1


class TestExplainAsksTheRouter:
    @pytest.fixture
    def world(self):
        fed = GridFederation()
        s1 = fed.create_server("jc1", "pc1")
        forced = fed.create_server("jc3", "pc3", force_jdbc=True)
        s2 = fed.create_server("jc2", "pc2")
        fed.attach_database(s1, make_events_db("pool_mart"),
                            logical_names={"EVT": "events"})
        fed.attach_database(s1, make_events_db("jdbc_mart", "mssql"),
                            logical_names={"EVT": "mssql_events"})
        fed.attach_database(forced, make_events_db("forced_mart"),
                            logical_names={"EVT": "forced_events"})
        fed.attach_database(s2, make_events_db("far_mart"),
                            logical_names={"EVT": "far_events"})
        return s1.service, forced.service

    @pytest.mark.parametrize("table, expected, on_forced", [
        ("events", "pool", False),
        ("mssql_events", "jdbc", False),
        ("forced_events", "jdbc", True),
        ("far_events", "remote", False),
    ])
    def test_predicted_route_is_the_executed_route(
        self, world, table, expected, on_forced
    ):
        service = world[1] if on_forced else world[0]
        sql = f"SELECT COUNT(*) FROM {table}"
        predicted = [s["route"] for s in service.explain(sql)["subqueries"]]
        assert predicted == service.execute(sql).routes == [expected]


class TestPlanCacheReplicaPreferences:
    """A cached plan is reused only while the replica preferences it was
    planned with still hold: after the preferred replica's host dies,
    the repeat re-plans onto the live one instead of failing over."""

    SQL = "SELECT COUNT(*), SUM(energy) FROM events WHERE energy > ?"

    def repeat_after_failure(self, cache):
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1", replica_selection=True, cache=cache)
        for name, vendor, host in (("near_mart", "mysql", "db1"),
                                   ("far_mart", "sqlite", "db2")):
            fed.attach_database(
                server, make_events_db(name, vendor), db_host=host,
                logical_names={"EVT": "events"},
            )
        service = server.service
        service.execute(self.SQL, (1.0,))
        fed.network.fail_host("db1")
        t0 = fed.clock.now_ms
        answer = service.execute(self.SQL, (2.0,))
        return answer, fed.clock.now_ms - t0, service

    def test_cached_repeat_matches_the_uncached_one(self):
        cold, cold_ms, _ = self.repeat_after_failure(cache=False)
        warm, warm_ms, service = self.repeat_after_failure(cache=True)
        assert [t.database for t in cold.traces] == ["far_mart"]
        assert [t.database for t in warm.traces] == ["far_mart"]
        assert warm.routes == cold.routes
        assert warm.rows == cold.rows
        assert service.metrics.counter("failovers").value == 0
        assert warm_ms == cold_ms

    def test_unchanged_preferences_still_hit(self):
        fed, service = replicated(replica_selection=True, cache=True)
        service.execute(self.SQL, (1.0,))
        service.execute(self.SQL, (2.0,))
        assert service.cache.stats()["plan"]["hits"] == 1


class TestQueryFrame:
    """Both front ends run their queries inside the pipeline's frame."""

    REFUSED = "SELECT no_such_column FROM events"

    def front_ends(self, **layers):
        fed, service = replicated(**layers)
        driver = UnityDriver(service.dictionary, fed.directory, **layers)
        return service, driver

    def test_a_refused_query_is_framed_alike(self):
        from repro.common.errors import PlanningError

        service, driver = self.front_ends(observe=True)
        # both planners refuse it
        for front_end in (service, driver):
            with pytest.raises(PlanningError):
                front_end.execute(self.REFUSED)
            assert front_end.metrics.counter("query_errors").value == 1
            (record,) = front_end.tracer.queries
            assert record.status == "error: PlanningError"
            assert {s.stage for s in front_end.tracer.spans} >= {"query", "decompose"}

    def test_observe_off_builds_no_monitoring(self):
        for front_end in self.front_ends():
            assert front_end.archiver is None
            assert front_end.slo is None
            assert front_end.monitor is None
