"""Per-backend circuit breakers on the simulated clock.

A dead database or JClarens peer costs ``PARTITION_TIMEOUT_MS`` per
touch; without a breaker, every query keeps paying that until the host
comes back. The breaker converts consecutive failures into an *instant*
refusal (``CircuitOpenError``), then lets a half-open probe through
after a cooldown — the matchmaking-time liveness idea from Condor-style
middleware, applied to the federation's data paths.

States: ``closed`` (normal) → ``open`` after
``costs.BREAKER_FAILURE_THRESHOLD`` consecutive failures → ``half_open``
once ``cooldown_ms`` of simulated time has passed; a successful probe
closes the breaker, a failed probe re-opens it.
"""

from __future__ import annotations

from repro.net import costs

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-counting gate in front of one backend."""

    def __init__(self, key: str, cooldown_ms: float, clock):
        self.key = key
        self.cooldown_ms = cooldown_ms
        self.clock = clock
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at_ms: float | None = None
        self._probes_in_flight = 0
        # lifetime counters (monitor_breakers rows)
        self.opens = 0
        self.fast_fails = 0
        self.failures = 0

    def retry_after_ms(self) -> float | None:
        """Simulated ms until a half-open probe is allowed (None if closed)."""
        if self.state != OPEN or self.opened_at_ms is None:
            return None
        return max(0.0, self.opened_at_ms + self.cooldown_ms - self.clock.now_ms)

    def allow(self) -> bool:
        """May a call proceed right now? (May transition open → half-open.)"""
        if self.state == OPEN:
            if self.clock.now_ms - (self.opened_at_ms or 0.0) >= self.cooldown_ms:
                self.state = HALF_OPEN
                self._probes_in_flight = 0
            else:
                self.fast_fails += 1
                return False
        if self.state == HALF_OPEN:
            if self._probes_in_flight < costs.BREAKER_HALF_OPEN_PROBES:
                self._probes_in_flight += 1
                return True
            self.fast_fails += 1
            return False
        return True

    def record_failure(self) -> bool:
        """Account one failure; True when this call tripped the breaker."""
        self.failures += 1
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            # the probe failed: straight back to open, cooldown restarts
            self._trip()
            return True
        if (
            self.state == CLOSED
            and self.consecutive_failures >= costs.BREAKER_FAILURE_THRESHOLD
        ):
            self._trip()
            return True
        return False

    def record_success(self) -> None:
        """Account one success; closes a half-open breaker."""
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self.state = CLOSED
            self.opened_at_ms = None
            self._probes_in_flight = 0

    def _trip(self) -> None:
        self.state = OPEN
        self.opened_at_ms = self.clock.now_ms
        self.opens += 1
        self._probes_in_flight = 0

    def as_row(self) -> tuple:
        """The ``monitor_breakers`` table shape."""
        return (
            self.key,
            self.state,
            int(self.consecutive_failures),
            int(self.opens),
            int(self.fast_fails),
            float(self.opened_at_ms) if self.opened_at_ms is not None else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker(key={self.key!r}, state={self.state!r}, "
            f"consecutive_failures={self.consecutive_failures})"
        )
