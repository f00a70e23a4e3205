"""Metrics registry: instruments, percentiles, stats() as a thin view."""

import pytest

from repro.clarens.codec import decode_payload, encode_payload
from repro.core import GridFederation
from repro.engine import Database
from repro.obs.metrics import Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        reg.counter("queries").inc()
        reg.counter("queries").inc(2)
        assert reg.counter("queries").value == 3
        with pytest.raises(ValueError):
            reg.counter("queries").inc(-1)

    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")


class TestHistogramPercentiles:
    def test_nearest_rank_on_known_distribution(self):
        h = Histogram("ms")
        for v in range(1, 101):  # 1..100
            h.observe(v)
        assert h.p50 == 50
        assert h.p95 == 95
        assert h.p99 == 99
        assert h.percentile(100) == 100
        assert h.min == 1 and h.max == 100
        assert h.mean == pytest.approx(50.5)

    def test_single_observation(self):
        h = Histogram("ms")
        h.observe(42.0)
        assert h.p50 == h.p95 == h.p99 == 42.0

    def test_empty_histogram_is_zero(self):
        h = Histogram("ms")
        assert h.p99 == 0.0
        assert h.stats()["count"] == 0.0

    def test_empty_histogram_explicit_semantics(self):
        """Regression: 'no data' must be distinguishable from 'p99=0'."""
        h = Histogram("ms")
        assert not h.values
        assert h.percentile(99, default=None) is None
        assert h.percentile(99) == 0.0  # display default, unchanged
        h.observe(5.0)
        assert h.values
        assert h.percentile(99, default=None) == 5.0

    def test_invalid_percentile_raises(self):
        h = Histogram("ms")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_invalid_percentile_raises_even_when_empty(self):
        """The range check wins over the empty-histogram default."""
        h = Histogram("ms")
        with pytest.raises(ValueError):
            h.percentile(0)
        with pytest.raises(ValueError):
            h.percentile(101, default=None)


class TestWireSafety:
    def test_snapshot_survives_the_codec(self):
        reg = MetricsRegistry()
        reg.counter("queries").inc(3)
        reg.histogram("query_ms").observe(12.5)
        method, decoded = decode_payload(
            encode_payload("dataaccess.metrics", reg.as_dict())
        )
        assert decoded["counters"]["queries"] == 3.0
        assert set(decoded) == {"counters", "histograms"}
        assert decoded["histograms"]["query_ms"]["p50"] == 12.5

    def test_registry_is_callable(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        assert reg() == reg.as_dict()


class TestStatsView:
    """The ad-hoc stats() counters are now views over the registry."""

    @pytest.fixture
    def federation(self):
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")
        db = Database("mart", "mysql")
        db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY)")
        db.execute("INSERT INTO EVT VALUES (1)")
        fed.attach_database(server, db, logical_names={"EVT": "events"})
        return fed, server

    def test_queries_served_tracks_registry(self, federation):
        fed, server = federation
        service = server.service
        service.execute("SELECT COUNT(*) FROM events")
        service.execute("SELECT COUNT(*) FROM events")
        assert service.queries_served == 2
        assert service.metrics.counter("queries").value == 2
        assert service.stats()["queries_served"] == 2

    def test_failed_query_not_counted_as_served(self, federation):
        fed, server = federation
        service = server.service
        with pytest.raises(Exception):
            service.execute("SELECT COUNT(*) FROM nope", no_forward=True)
        assert service.queries_served == 0

    def test_remote_fetches_counted(self):
        """PR fix: remote fetches used to be invisible in stats()."""
        fed = GridFederation()
        a = fed.create_server("jc-a", "pc-a")
        b = fed.create_server("jc-b", "pc-b")
        db = Database("mart", "mysql")
        db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY)")
        db.execute("INSERT INTO EVT VALUES (1)")
        fed.attach_database(b, db, logical_names={"EVT": "events"})
        answer = a.service.execute("SELECT COUNT(*) FROM events")
        assert answer.rows == [(1,)]
        stats = a.service.stats()
        assert stats["remote_fetches"] == 1
        assert stats["routes"]["remote"] == 1

    def test_route_counts_is_registry_view(self, federation):
        fed, server = federation
        server.service.execute("SELECT COUNT(*) FROM events")
        router = server.service.router
        assert router.route_counts["pool"] == 1
        assert (
            router.route_counts["pool"]
            == server.service.metrics.counter("subqueries.pool").value
        )

    def test_stats_remain_wire_safe(self, federation):
        fed, server = federation
        server.service.execute("SELECT COUNT(*) FROM events")
        client = fed.client("laptop")
        stats = client.call(server.server, "dataaccess.stats")
        assert stats["queries_served"] == 1
        assert stats["failovers"] == 0
        assert stats["rows_returned"] == 1

