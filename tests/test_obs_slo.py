"""SLO engine: burn-rate math, alert hysteresis, the health verdict.

Includes the acceptance scenario end-to-end: a chaos blackout (PR 4
harness) burns the error budget, ``dataaccess.health`` flips to
critical, and both ``monitor_alerts`` and ``monitor_history`` answer
plain federated SQL about what happened.
"""

import pytest

from repro.core import GridFederation
from repro.engine import Database
from repro.net.simclock import SimClock
from repro.obs.archive import MetricsArchiver
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLO, SLOEngine, default_slos
from repro.resilience import ChaosSchedule, ResilienceConfig


def make_engine(slos=None):
    clock = SimClock()
    registry = MetricsRegistry()
    archiver = MetricsArchiver(registry, clock)
    engine = SLOEngine(archiver, clock=clock, slos=slos)
    return clock, registry, archiver, engine


def make_events_db(name, vendor="mysql", n=10):
    db = Database(name, vendor)
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, ENERGY DOUBLE)")
    for i in range(n):
        db.execute(f"INSERT INTO EVT VALUES ({i}, {i * 1.0})")
    return db


class TestSLODeclaration:
    def test_budget(self):
        assert SLO(name="a", objective=0.99).budget == pytest.approx(0.01)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            SLO(name="a", kind="vibes")

    def test_invalid_objective_rejected(self):
        with pytest.raises(ValueError):
            SLO(name="a", objective=1.0)

    def test_defaults_cover_availability_and_latency(self):
        kinds = {s.kind for s in default_slos()}
        assert kinds == {"errors", "latency"}

    def test_latency_slo_registers_archiver_threshold(self):
        _, _, archiver, _ = make_engine()
        assert archiver.thresholds.get("query_ms") == 1_000.0


class TestBurnMath:
    def test_no_traffic_is_no_data_not_compliance(self):
        """Zero attempted events must never read as 'burn 0' (guard)."""
        _, _, _, engine = make_engine()
        status = engine.status()
        assert status["availability"]["state"] == "no_data"
        assert status["availability"]["fast_burn"] is None

    def test_burn_is_bad_fraction_over_budget(self):
        clock, registry, archiver, engine = make_engine()
        registry.counter("queries").inc(90)
        registry.counter("partial_answers").inc(10)
        archiver.snapshot()
        reading = engine._burn(engine.slos[0], 5_000.0)
        assert reading.total == pytest.approx(90.0)
        assert reading.bad == pytest.approx(10.0)
        assert reading.burn == pytest.approx((10.0 / 90.0) / 0.01)

    def test_latency_burn_counts_threshold_breaches(self):
        slo = SLO(name="lat", kind="latency", objective=0.9, threshold_ms=100.0)
        clock, registry, archiver, engine = make_engine(slos=(slo,))
        h = registry.histogram("query_ms")
        for v in (10.0, 50.0, 500.0, 900.0):
            h.observe(v)
        archiver.snapshot()
        reading = engine._burn(slo, 5_000.0)
        assert reading.total == pytest.approx(4.0)
        assert reading.bad == pytest.approx(2.0)
        assert reading.burn == pytest.approx(0.5 / 0.1)


class TestAlertLifecycle:
    def fire_engine(self):
        """An engine with a torched fast window (100% bad)."""
        clock, registry, archiver, engine = make_engine()
        registry.counter("queries").inc(10)
        registry.counter("partial_answers").inc(10)
        archiver.snapshot()
        return clock, registry, archiver, engine

    def test_fast_burn_fires_page(self):
        clock, registry, archiver, engine = self.fire_engine()
        changed = engine.evaluate()
        assert any(
            a.severity == "page" and a.state == "firing" for a in changed
        )
        assert engine.firing()

    def test_firing_is_edge_triggered(self):
        clock, registry, archiver, engine = self.fire_engine()
        first = engine.evaluate()
        second = engine.evaluate()
        assert first and not second  # no re-fire while still burning

    def test_resolves_with_hysteresis_after_window_drains(self):
        clock, registry, archiver, engine = self.fire_engine()
        engine.evaluate()
        # healthy traffic pushes the bad buckets out of the fast window
        for _ in range(20):
            clock.advance_ms(500.0)
            registry.counter("queries").inc(5)
            archiver.snapshot()
            engine.evaluate()
        firing_keys = {(a.slo, a.severity) for a in engine.firing()}
        assert ("availability", "page") not in firing_keys
        states = [a.state for a in engine.alerts if a.severity == "page"]
        assert states == ["firing", "resolved"]

    def test_alert_rows_shape(self):
        clock, registry, archiver, engine = self.fire_engine()
        engine.evaluate()
        rows = engine.alert_rows()
        assert rows
        for row in rows:
            assert len(row) == 7


class TestHealthVerdict:
    def test_healthy_engine_reports_ok(self):
        clock, registry, archiver, engine = make_engine()
        registry.counter("queries").inc(10)
        archiver.snapshot()
        engine.evaluate()
        health = engine.health()
        assert health["verdict"] == "ok"
        assert health["observed"] is True
        assert health["error_fraction"] == pytest.approx(0.0)

    def test_p99_none_without_latency_data(self):
        _, _, _, engine = make_engine()
        assert engine.health()["p99_ms"] is None


class TestChaosBlackoutAcceptance:
    @pytest.fixture
    def observed_resilient(self):
        """One observed+resilient server, 'events' on two db hosts."""
        fed = GridFederation()
        config = ResilienceConfig(cooldown_ms=5_000.0)
        server = fed.create_server(
            "jc1", "pc1", observe=True, resilience=config,
        )
        fed.attach_database(
            server, make_events_db("primary_mart"),
            db_host="db1", logical_names={"EVT": "events"},
        )
        fed.attach_database(
            server, make_events_db("replica_mart", vendor="sqlite"),
            db_host="db2", logical_names={"EVT": "events"},
        )
        return fed, server

    def test_blackout_burns_budget_and_flips_health(self, observed_resilient):
        fed, server = observed_resilient
        service = server.service

        # healthy phase
        for _ in range(6):
            service.execute("SELECT COUNT(*) FROM events")
            fed.clock.advance_ms(400.0)
        assert service.health()["verdict"] == "ok"

        # blackout: both replica hosts die; queries degrade to partial
        base = fed.clock.now_ms
        schedule = (
            ChaosSchedule().fail_host(base, "db1").fail_host(base, "db2")
        )
        driver = schedule.driver(fed.network, fed.clock)
        driver.tick()
        for i in range(8):
            answer = service.execute(
                f"SELECT COUNT(*) FROM events WHERE event_id >= {i}",
                allow_partial=True,
            )
            assert answer.partial
            fed.clock.advance_ms(400.0)

        health = service.health()
        assert health["verdict"] == "critical"
        assert any(
            a["severity"] == "page" for a in health["alerts_firing"]
        )
        assert health["breakers"]["open"] >= 1

        # the same story through plain federated SQL
        fired = service.execute(
            "SELECT COUNT(*) FROM monitor_alerts WHERE state = 'firing'"
        )
        assert fired.rows[0][0] >= 1
        partials = service.execute(
            "SELECT SUM(total) FROM monitor_history "
            "WHERE metric = 'partial_answers' AND res_ms = 0.0"
        )
        assert partials.rows[0][0] == pytest.approx(8.0)

    def test_unobserved_service_has_no_health(self):
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")
        assert server.service.health() == {
            "observed": False, "verdict": "unobserved",
        }
