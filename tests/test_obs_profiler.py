"""Query profiler: span trees folded into per-operator cost models.

The load-bearing invariant throughout: operator **self-times sum
exactly to the traced query latency**, including under parallel
sibling spans (the simclock forks per backend and joins at the max, so
siblings legitimately overlap) and imported remote spans.
"""

import pytest

from repro.core import GridFederation
from repro.engine import Database
from repro.net.simclock import SimClock
from repro.obs import profiler as profiler_module
from repro.obs.profiler import QueryProfiler, _self_times
from repro.obs.trace import Tracer


def make_events_db(name, n=10, vendor="mysql"):
    db = Database(name, vendor)
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, ENERGY DOUBLE)")
    for i in range(n):
        db.execute(f"INSERT INTO EVT VALUES ({i}, {i * 1.0})")
    return db


def trace_simple(clock, tracer):
    """query(20ms) -> decompose(5ms) + subquery(12ms) + 3ms idle."""
    with tracer.span("query") as root:
        with tracer.span("decompose"):
            clock.advance_ms(5)
        with tracer.span("subquery"):
            clock.advance_ms(12)
        clock.advance_ms(3)
    return root


class TestSelfTimeSweep:
    def test_sequential_children(self):
        clock = SimClock()
        tracer = Tracer(clock, "jc1")
        root = trace_simple(clock, tracer)
        spans = tracer.spans_for(root.trace_id)
        self_ms = _self_times(root, spans)
        by_stage = {
            s.stage: self_ms[s.span_id] for s in spans
        }
        assert by_stage["decompose"] == pytest.approx(5.0)
        assert by_stage["subquery"] == pytest.approx(12.0)
        # the root keeps only the uncovered 3 ms
        assert by_stage["query"] == pytest.approx(3.0)
        assert sum(self_ms.values()) == pytest.approx(root.duration_ms)

    def test_parallel_siblings_split_equally(self):
        """Two fully-overlapping siblings share the overlapped interval."""
        clock = SimClock()
        tracer = Tracer(clock, "jc1")
        with tracer.span("query") as root:
            def branch():
                with tracer.span("subquery"):
                    clock.advance_ms(10)
            clock.run_parallel([branch, branch])
        spans = tracer.spans_for(root.trace_id)
        self_ms = _self_times(root, spans)
        total = sum(self_ms.values())
        assert total == pytest.approx(root.duration_ms)
        sub_shares = [
            self_ms[s.span_id] for s in spans if s.stage == "subquery"
        ]
        assert sub_shares == pytest.approx([5.0, 5.0])

    def test_spans_clamped_into_root_interval(self):
        """A stray span outside the root window contributes nothing."""
        clock = SimClock()
        tracer = Tracer(clock, "jc1")
        stray = None
        with tracer.span("query") as root:
            clock.advance_ms(4)
            # a remote span (imported later) claiming to predate the root
            stray = tracer.record("transfer", -50.0, -40.0)
        spans = tracer.spans_for(root.trace_id)
        self_ms = _self_times(root, spans)
        assert self_ms[stray.span_id] == 0.0
        assert sum(self_ms.values()) == pytest.approx(root.duration_ms)


class TestQueryProfiler:
    def profile_one(self, total_advance=20):
        clock = SimClock()
        tracer = Tracer(clock, "jc1")
        profiler = QueryProfiler(clock)
        root = trace_simple(clock, tracer)
        return profiler.record(
            root, tracer.spans_for(root.trace_id), shape="SELECT 1"
        ), profiler

    def test_profile_conserves_total(self):
        profile, _ = self.profile_one()
        assert profile.total_ms == pytest.approx(20.0)
        assert profile.self_total_ms == pytest.approx(profile.total_ms)

    def test_operator_rows(self):
        profile, _ = self.profile_one()
        ops = {}
        for op in profile.operators:
            ops.setdefault(op.stage, op)
        sub = ops["subquery"]
        assert sub.calls == 1
        assert sub.self_ms == pytest.approx(12.0)
        assert sub.cum_ms == pytest.approx(12.0)
        root = ops["query"]
        assert root.cum_ms == pytest.approx(20.0)
        assert root.self_ms == pytest.approx(3.0)

    def test_folded_lines_flamegraph_shape(self):
        profile, _ = self.profile_one()
        lines = profile.folded_lines()
        assert "query;decompose 5.000" in lines
        assert "query;subquery 12.000" in lines
        # folded self-times also sum to the total
        total = sum(float(line.rsplit(" ", 1)[1]) for line in lines)
        assert total == pytest.approx(profile.total_ms)

    def test_top_n_retention_keeps_slowest(self, monkeypatch):
        monkeypatch.setattr(profiler_module, "TOP_N", 3)
        clock = SimClock()
        tracer = Tracer(clock, "jc1")
        profiler = QueryProfiler(clock)
        durations = [5, 50, 10, 40, 20, 30]
        for ms in durations:
            with tracer.span("query") as root:
                clock.advance_ms(ms)
            profiler.record(
                root, tracer.spans_for(root.trace_id), shape=f"Q{ms}"
            )
        assert profiler.profiled == len(durations)
        assert [p.total_ms for p in profiler.slowest] == [50, 40, 30]
        # the most recent profile stays addressable even when not top-N
        assert profiler.get(root.trace_id) is not None
        assert profiler.get().shape == "Q30"

    def test_profile_rows_shape(self):
        _, profiler = self.profile_one()
        rows = profiler.profile_rows()
        assert rows, "expected monitor_profile rows"
        for row in rows:
            assert len(row) == 10
            # self <= cum <= total for every operator of this trace
            assert row[7] <= row[8] + 1e-9
            assert row[8] <= row[9] + 1e-9


class TestProfilerThroughService:
    @pytest.fixture
    def observed(self):
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1", observe=True)
        fed.attach_database(
            server, make_events_db("mart"), logical_names={"EVT": "events"}
        )
        return fed, server

    def test_answer_carries_profile(self, observed):
        fed, server = observed
        answer = server.service.execute("SELECT COUNT(*) FROM events")
        profile = answer.profile
        assert profile is not None
        assert profile.total_ms > 0
        assert profile.self_total_ms == pytest.approx(profile.total_ms)

    def test_wire_method_matches_traced_latency(self, observed):
        """dataaccess.profile self/cum totals match the traced query."""
        fed, server = observed
        server.service.execute("SELECT COUNT(*) FROM events")
        wire = server.service.profile()
        assert wire["self_total_ms"] == pytest.approx(wire["total_ms"])
        record = server.service.tracer.queries[-1]
        assert wire["total_ms"] == pytest.approx(record.duration_ms)
        assert wire["trace_id"] == record.trace_id

    def test_distributed_profile_conserves_under_parallelism(self):
        """Two backends on two servers: overlapping spans, exact total."""
        fed = GridFederation()
        s1 = fed.create_server("jc1", "pc1", observe=True)
        s2 = fed.create_server("jc2", "pc2", observe=True)
        fed.attach_database(
            s1, make_events_db("mart_a"), logical_names={"EVT": "events_a"}
        )
        fed.attach_database(
            s2, make_events_db("mart_b"), logical_names={"EVT": "events_b"}
        )
        answer = s1.service.execute(
            "SELECT a.event_id, b.energy FROM events_a a "
            "JOIN events_b b ON a.event_id = b.event_id"
        )
        assert answer.servers_accessed == 2
        profile = answer.profile
        assert profile.self_total_ms == pytest.approx(profile.total_ms)
        servers = {op.server for op in profile.operators}
        assert {"jc1", "jc2"} <= servers

    def test_unobserved_answer_has_no_profile(self):
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")
        fed.attach_database(
            server, make_events_db("mart"), logical_names={"EVT": "events"}
        )
        answer = server.service.execute("SELECT COUNT(*) FROM events")
        assert answer.profile is None
        assert server.service.profile() == {}
