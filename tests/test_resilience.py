"""Unit tests for the resilience package: backoff, breaker, chaos, manager."""

import pytest

from repro.common.errors import CircuitOpenError, ConnectionFailedError
from repro.net import costs
from repro.net.network import Network
from repro.net.simclock import SimClock
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    ChaosEvent,
    ChaosSchedule,
    CircuitBreaker,
    ResilienceConfig,
    ResilienceManager,
)
from repro.resilience.manager import backoff_ms


@pytest.fixture
def patch_costs(monkeypatch):
    """``patch_costs(NAME=value, ...)`` sets ``repro.net.costs`` constants
    for one test."""

    def patch(**values):
        for name, value in values.items():
            monkeypatch.setattr(costs, name, value)

    return patch


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self, patch_costs):
        patch_costs(RETRY_BACKOFF_BASE_MS=10.0, RETRY_BACKOFF_MULTIPLIER=2.0)
        assert backoff_ms(1) == 10.0
        assert backoff_ms(2) == 20.0
        assert backoff_ms(3) == 40.0

    def test_backoff_is_capped(self, patch_costs):
        patch_costs(
            RETRY_BACKOFF_BASE_MS=10.0,
            RETRY_BACKOFF_MULTIPLIER=10.0,
            RETRY_BACKOFF_CAP_MS=500.0,
        )
        assert backoff_ms(5) == 500.0

    def test_backoff_rejects_zero_failures(self):
        with pytest.raises(ValueError):
            backoff_ms(0)

    def test_breaker_config_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(cooldown_ms=-1.0)


class TestCircuitBreaker:
    @pytest.fixture(autouse=True)
    def _costs(self, patch_costs):
        self.patch_costs = patch_costs

    def make(self, threshold=3, cooldown=1_000.0):
        self.patch_costs(BREAKER_FAILURE_THRESHOLD=threshold)
        clock = SimClock()
        return clock, CircuitBreaker("db:x", cooldown, clock)

    def test_trips_after_consecutive_failures(self):
        _clock, breaker = self.make(threshold=3)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # this call tripped it
        assert breaker.state == OPEN
        assert breaker.opens == 1

    def test_success_resets_the_streak(self):
        _clock, breaker = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is False
        assert breaker.state == CLOSED

    def test_open_refuses_and_counts_fast_fails(self):
        _clock, breaker = self.make(threshold=1)
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.allow() is False
        assert breaker.allow() is False
        assert breaker.fast_fails == 2

    def test_cooldown_goes_half_open_and_probe_heals(self):
        clock, breaker = self.make(threshold=1, cooldown=1_000.0)
        breaker.record_failure()
        clock.advance_ms(1_000.0)
        assert breaker.allow() is True  # the half-open probe
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.retry_after_ms() is None

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        clock, breaker = self.make(threshold=1, cooldown=1_000.0)
        breaker.record_failure()
        clock.advance_ms(1_000.0)
        assert breaker.allow() is True
        assert breaker.record_failure() is True  # probe failed: re-trip
        assert breaker.state == OPEN
        assert breaker.opens == 2
        assert breaker.retry_after_ms() == pytest.approx(1_000.0)

    def test_half_open_admits_only_the_probe_quota(self):
        clock, breaker = self.make(threshold=1, cooldown=100.0)
        breaker.record_failure()
        clock.advance_ms(100.0)
        assert breaker.allow() is True
        assert breaker.allow() is False  # second caller must wait

    def test_retry_after_counts_down(self):
        clock, breaker = self.make(threshold=1, cooldown=1_000.0)
        breaker.record_failure()
        clock.advance_ms(400.0)
        assert breaker.retry_after_ms() == pytest.approx(600.0)

    def test_as_row_shape(self):
        _clock, breaker = self.make(threshold=1)
        breaker.record_failure()
        key, state, streak, opens, fast_fails, opened_at = breaker.as_row()
        assert (key, state, streak, opens) == ("db:x", OPEN, 1, 1)
        assert fast_fails == 0 and opened_at == 0.0


class TestChaosSchedule:
    def test_events_kept_sorted_regardless_of_insertion(self):
        schedule = (
            ChaosSchedule().fail_host(500, "b").fail_host(100, "a")
        )
        assert [e.at_ms for e in schedule.events] == [100.0, 500.0]
        assert schedule.hosts_killed() == {"a", "b"}
        assert len(schedule) == 2

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            ChaosEvent(0.0, "explode_host", ("a",))

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            ChaosEvent(0.0, "fail_link", ("only-one",))

    def test_tick_applies_only_due_events(self):
        clock = SimClock()
        network = Network()
        network.add_host("a")
        network.add_host("b")
        driver = (
            ChaosSchedule()
            .fail_host(100, "a")
            .fail_host(200, "b")
            .driver(network, clock)
        )
        assert driver.tick() == []
        clock.advance_ms(100)
        fired = driver.tick()
        assert [e.args for e in fired] == [("a",)]
        assert not network.is_reachable("a", "b")
        assert network.is_reachable("b", "b")
        assert len(driver.applied) < len(driver.schedule.events)

    def test_tick_is_idempotent_per_event(self):
        clock = SimClock()
        network = Network()
        network.add_host("a")
        driver = ChaosSchedule().fail_host(0, "a").driver(network, clock)
        assert len(driver.tick()) == 1
        assert driver.tick() == []
        assert driver.applied == driver.schedule.events

    def test_finish_applies_the_rest(self):
        clock = SimClock()
        network = Network()
        network.add_host("a")
        driver = (
            ChaosSchedule()
            .fail_host(1_000, "a")
            .restore_host(2_000, "a")
            .driver(network, clock)
        )
        assert len(driver.finish()) == 2
        assert driver.applied == driver.schedule.events
        assert network.is_reachable("a", "a")


class FlakyBackend:
    """Fails the first ``n`` calls, then succeeds forever."""

    def __init__(self, n):
        self.remaining = n
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise ConnectionFailedError("transient")
        return "rows"


class TestResilienceManager:
    @pytest.fixture(autouse=True)
    def _costs(self, patch_costs):
        self.patch_costs = patch_costs

    def make(self, cooldown_ms=10_000.0, **constants):
        """A manager on a fresh clock, with ``constants`` patched into
        ``repro.net.costs``."""
        self.patch_costs(**constants)
        clock = SimClock()
        manager = ResilienceManager(
            clock=clock, metrics=MetricsRegistry(),
            config=ResilienceConfig(cooldown_ms=cooldown_ms),
        )
        return clock, manager

    def test_retry_recovers_a_transient_failure(self):
        clock, manager = self.make(RETRY_MAX_ATTEMPTS=3)
        backend = FlakyBackend(2)
        assert manager.call("db:x", backend) == "rows"
        assert backend.calls == 3
        assert manager.stats()["retries"] == 2

    def test_backoff_is_charged_to_the_clock(self):
        clock, manager = self.make(
            RETRY_MAX_ATTEMPTS=2, RETRY_BACKOFF_BASE_MS=40.0
        )
        t0 = clock.now_ms
        manager.call("db:x", FlakyBackend(1))
        assert clock.now_ms - t0 == pytest.approx(40.0)

    def test_attempts_are_bounded(self):
        _clock, manager = self.make(RETRY_MAX_ATTEMPTS=2)
        backend = FlakyBackend(99)
        with pytest.raises(ConnectionFailedError):
            manager.call("db:x", backend)
        assert backend.calls == 2

    def test_breaker_opens_and_fast_fails(self):
        _clock, manager = self.make(
            cooldown_ms=5_000.0,
            RETRY_MAX_ATTEMPTS=1,
            RETRY_BACKOFF_BASE_MS=0.0,
            BREAKER_FAILURE_THRESHOLD=2,
        )
        backend = FlakyBackend(99)
        for _ in range(2):
            with pytest.raises(ConnectionFailedError):
                manager.call("db:x", backend)
        calls_before = backend.calls
        with pytest.raises(CircuitOpenError) as info:
            manager.call("db:x", backend)
        assert backend.calls == calls_before  # never reached the backend
        assert info.value.retry_after_ms == pytest.approx(5_000.0)
        assert manager.metrics.counter("resilience.fast_fails").value == 1
        assert manager.metrics.counter("resilience.breaker_opens").value == 1

    def test_circuit_open_error_is_a_connection_failure(self):
        # failover code catches ConnectionFailedError; a fast-fail must
        # look exactly like a dead backend to it
        assert issubclass(CircuitOpenError, ConnectionFailedError)

    def test_breaker_heals_through_half_open_probe(self):
        clock, manager = self.make(
            cooldown_ms=1_000.0, RETRY_MAX_ATTEMPTS=1, BREAKER_FAILURE_THRESHOLD=1
        )
        with pytest.raises(ConnectionFailedError):
            manager.call("db:x", FlakyBackend(1))
        clock.advance_ms(1_000.0)
        assert manager.call("db:x", FlakyBackend(0)) == "rows"
        assert manager.breaker("db:x").state == CLOSED

    def test_deadline_budget_stops_backoff(self):
        clock, manager = self.make(
            RETRY_MAX_ATTEMPTS=5,
            RETRY_BACKOFF_BASE_MS=400.0,
            RETRY_DEADLINE_MS=300.0,
        )
        backend = FlakyBackend(99)
        t0 = clock.now_ms
        with pytest.raises(ConnectionFailedError):
            manager.call("db:x", backend, deadline_at_ms=t0 + 300.0)
        assert backend.calls == 1  # no time left to back off and retry
        assert clock.now_ms == t0
        assert (
            manager.metrics.counter("resilience.deadline_exhausted").value == 1
        )

    def test_non_retryable_errors_pass_straight_through(self):
        _clock, manager = self.make(RETRY_MAX_ATTEMPTS=5)

        def backend():
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            manager.call("db:x", backend)

    def test_breaker_rows_sorted_by_key(self):
        _clock, manager = self.make()
        manager.breaker("peer:b")
        manager.breaker("db:a")
        assert [row[0] for row in manager.breaker_rows()] == ["db:a", "peer:b"]
