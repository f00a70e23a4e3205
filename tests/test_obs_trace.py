"""Span tracing: nesting, simclock stamps, failover, cross-server hops."""

import pytest

from repro.common.errors import ConnectionFailedError
from repro.core import GridFederation
from repro.engine import Database
from repro.net.simclock import SimClock
from repro.obs.trace import NOOP_SPAN, Span, Tracer, format_span_tree


def make_events_db(name, n=10, vendor="mysql"):
    db = Database(name, vendor)
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, ENERGY DOUBLE)")
    for i in range(n):
        db.execute(f"INSERT INTO EVT VALUES ({i}, {i * 1.0})")
    return db


@pytest.fixture
def observed_replicated():
    """'events' on two databases behind one *observing* server."""
    fed = GridFederation()
    server = fed.create_server("jc1", "pc1", observe=True)
    primary = make_events_db("primary_mart")
    replica = make_events_db("replica_mart", vendor="sqlite")
    fed.attach_database(server, primary, logical_names={"EVT": "events"})
    fed.attach_database(
        server, replica, db_host="pc2", logical_names={"EVT": "events"}
    )
    return fed, server


class TestTracerBasics:
    def test_nesting_assigns_parent_child(self):
        clock = SimClock()
        tracer = Tracer(clock, "jc1")
        with tracer.span("query") as outer:
            clock.advance_ms(5)
            with tracer.span("decompose") as inner:
                clock.advance_ms(2)
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert outer.parent_id is None
        assert inner.duration_ms == pytest.approx(2.0)
        assert outer.duration_ms == pytest.approx(7.0)

    def test_ids_are_deterministic(self):
        tracer = Tracer(SimClock(), "jc1")
        with tracer.span("query") as a:
            pass
        with tracer.span("query") as b:
            pass
        assert (a.trace_id, a.span_id) == ("jc1-t1", "jc1-s1")
        assert (b.trace_id, b.span_id) == ("jc1-t2", "jc1-s2")

    def test_exception_recorded_on_span(self):
        tracer = Tracer(SimClock(), "jc1")
        with pytest.raises(ValueError):
            with tracer.span("query"):
                raise ValueError("boom")
        assert tracer.spans[0].error == "ValueError: boom"

    def test_record_outside_any_span_is_dropped(self):
        tracer = Tracer(SimClock(), "jc1")
        assert tracer.record("transfer", 0.0, 1.0) is None
        assert tracer.spans == []

    def test_wire_round_trip(self):
        tracer = Tracer(SimClock(), "jc1")
        with tracer.span("subquery", route="pool", rows=3):
            pass
        span = tracer.spans[0]
        clone = Span.from_dict(span.as_dict())
        assert clone == span

    def test_format_span_tree_single_root(self):
        clock = SimClock()
        tracer = Tracer(clock, "jc1")
        with tracer.span("query"):
            with tracer.span("decompose"):
                clock.advance_ms(1)
            with tracer.span("merge"):
                clock.advance_ms(1)
        lines = format_span_tree(tracer.spans_for("jc1-t1"))
        assert len(lines) == 3
        assert lines[0].startswith("query [jc1]")
        assert lines[1].startswith("├─ decompose")
        assert lines[2].startswith("└─ merge")


class TestFailoverTracing:
    def test_failed_attempt_and_retry_are_siblings(self, observed_replicated):
        fed, server = observed_replicated
        url = server.service.dictionary.url_for("primary_mart")
        fed.directory.unregister(url)
        answer = server.service.execute("SELECT COUNT(*) FROM events")
        assert answer.rows == [(10,)]
        tracer = server.service.tracer
        subs = [s for s in tracer.spans if s.stage == "subquery"]
        assert len(subs) == 2
        failed, retried = subs
        assert failed.error is not None
        assert "partition" in failed.error or "Connection" in failed.error
        assert retried.error is None
        assert retried.attrs["database"] == "replica_mart"
        # siblings: same parent, and the failed span closed before the retry
        assert failed.parent_id == retried.parent_id
        assert failed.end_ms <= retried.start_ms

    def test_failover_counters(self, observed_replicated):
        fed, server = observed_replicated
        fed.directory.unregister(server.service.dictionary.url_for("primary_mart"))
        server.service.execute("SELECT COUNT(*) FROM events")
        stats = server.service.stats()
        assert stats["failovers"] == 1
        assert stats["failover_retries"] == 1

    def test_replica_host_threaded_into_subquery_trace(self, observed_replicated):
        fed, server = observed_replicated
        fed.directory.unregister(server.service.dictionary.url_for("primary_mart"))
        answer = server.service.execute("SELECT COUNT(*) FROM events")
        trace = answer.traces[0]
        assert trace.replica_host == "pc2"
        assert trace.database == "replica_mart"
        assert trace.end_ms > trace.start_ms


class TestRemoteHopTracing:
    def test_remote_spans_parent_under_origin_subquery(self):
        from repro.tools.tracereport import DEMO_SQL, build_observed_federation

        fed, a, b = build_observed_federation()
        a.service.execute(DEMO_SQL)
        tracer = a.service.tracer
        spans = tracer.spans_for(tracer.last_trace_id)
        remote = [s for s in spans if s.server == "jclarens-b"]
        assert remote, "remote server's spans should be imported into the trace"
        ids = {s.span_id for s in spans}
        # the remote root (its 'query' span) parents under A's subquery span
        remote_query = next(s for s in remote if s.stage == "query")
        origin_sub = next(
            s
            for s in spans
            if s.stage == "subquery" and s.attrs.get("route") == "remote"
        )
        assert remote_query.parent_id == origin_sub.span_id
        assert all(s.parent_id in ids for s in remote)
        # the remote tracer holds no open span after the hop
        assert b.service.tracer.active is None

    def test_failed_forwarded_query_leaves_no_context_behind(self):
        from repro.tools.tracereport import (
            DEMO_SQL, MONITOR_SQL, build_observed_federation,
        )

        fed, a, b = build_observed_federation()
        # B answers the forwarded sub-query, but its database is gone
        fed.directory.unregister(b.service.dictionary.url_for("mart_mssql"))
        with pytest.raises(ConnectionFailedError):
            a.service.execute(DEMO_SQL)
        tracer = b.service.tracer
        forwarded = next(s for s in tracer.spans if s.stage == "query")
        assert forwarded.error is not None
        assert forwarded.trace_id == a.service.tracer.last_trace_id
        assert tracer.active is None
        # B's next locally rooted query starts a trace of its own
        b.service.execute(MONITOR_SQL)
        root = tracer.spans[-1]
        assert root.stage == "query" and root.parent_id is None
        assert root.trace_id != forwarded.trace_id
        assert tracer.last_trace_id == root.trace_id

    def test_trace_wire_method(self):
        from repro.tools.tracereport import DEMO_SQL, build_observed_federation

        fed, a, b = build_observed_federation()
        a.service.execute(DEMO_SQL)
        client = fed.client("laptop")
        spans = client.call(a.server, "dataaccess.trace")
        assert spans
        assert {s["trace_id"] for s in spans} == {a.service.tracer.last_trace_id}
        by_id = client.call(a.server, "dataaccess.trace", spans[0]["trace_id"])
        assert by_id == spans

    def test_metrics_wire_method(self):
        from repro.tools.tracereport import DEMO_SQL, build_observed_federation

        fed, a, b = build_observed_federation()
        a.service.execute(DEMO_SQL)
        client = fed.client("laptop")
        snapshot = client.call(a.server, "dataaccess.metrics")
        assert snapshot["counters"]["queries"] == 1.0
        assert snapshot["histograms"]["query_ms"]["count"] == 1.0


class TestUnityDriverObservability:
    def test_driver_spans_and_trace_timestamps(self, two_db_federation):
        from repro.unity import UnityDriver

        directory, dictionary, events, runs, urls = two_db_federation
        clock = SimClock()
        driver = UnityDriver(dictionary, directory, clock=clock, observe=True)
        result = driver.execute(
            "SELECT e.energy, r.detector FROM events e "
            "INNER JOIN runs r ON e.run_id = r.run_id"
        )
        stages = [s.stage for s in driver.tracer.spans]
        assert stages.count("subquery") == 2
        assert "decompose" in stages and "query" in stages
        for trace in result.traces:
            assert trace.end_ms > trace.start_ms
        assert driver.metrics.counter("queries").value == 1
        assert driver.metrics.histogram("query_ms").count == 1

    def test_driver_observe_off_allocates_no_spans(self, two_db_federation):
        from repro.unity import UnityDriver

        directory, dictionary, events, runs, urls = two_db_federation
        driver = UnityDriver(dictionary, directory, clock=SimClock())
        result = driver.execute("SELECT COUNT(*) FROM events")
        assert driver.tracer is None
        assert result.traces[0].end_ms > result.traces[0].start_ms


class TestObserveOff:
    def test_disabled_service_allocates_nothing(self):
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")  # observe defaults to False
        db = make_events_db("mart")
        fed.attach_database(server, db, logical_names={"EVT": "events"})
        service = server.service
        assert service.tracer is None
        assert service.monitor is None
        assert service.pipeline.span("anything") is NOOP_SPAN
        service.execute("SELECT COUNT(*) FROM events")
        # no network observer was registered either
        assert fed.network._observers == []

    def test_trace_method_empty_when_off(self):
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")
        db = make_events_db("mart")
        fed.attach_database(server, db, logical_names={"EVT": "events"})
        client = fed.client("laptop")
        assert client.call(server.server, "dataaccess.trace") == []
