"""The resilience manager: retry + breakers behind one call surface.

One manager lives inside each opted-in service/driver. Call sites wrap
a backend touch as ``manager.call(key, fn)``; the manager consults the
backend's circuit breaker, retries transient connection failures with
exponential backoff (charged to the simulated clock), honours the
deadline instant the calling query passes in, and feeds the metrics
registry and tracer so every retry and fast-fail is visible in
``dataaccess.metrics`` and the span tree.
"""

from __future__ import annotations

from repro.common.errors import CircuitOpenError, ConnectionFailedError
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.policy import ResilienceConfig


class ResilienceManager:
    """Retry policy + per-backend breakers for one service or driver."""

    def __init__(
        self,
        clock,
        metrics=None,
        config: ResilienceConfig | None = None,
        tracer=None,
    ):
        self.clock = clock
        self.metrics = metrics
        self.tracer = tracer
        self.config = config or ResilienceConfig()
        self.policy = self.config.retry
        self._breakers: dict[str, CircuitBreaker] = {}

    # -- breakers -----------------------------------------------------------------

    def breaker(self, key: str) -> CircuitBreaker:
        """The breaker guarding ``key`` (created closed on first touch)."""
        inst = self._breakers.get(key)
        if inst is None:
            inst = self._breakers[key] = CircuitBreaker(
                key, self.config.breaker, self.clock
            )
        return inst

    def breakers(self) -> list[CircuitBreaker]:
        """Every breaker, sorted by key."""
        return [self._breakers[k] for k in sorted(self._breakers)]

    def breaker_rows(self) -> list[tuple]:
        """(key, state, consecutive_failures, opens, fast_fails, opened_at)."""
        return [b.as_row() for b in self.breakers()]

    # -- budgets ------------------------------------------------------------------

    def _budget_allows(self, delay_ms: float, deadline_at_ms: float | None) -> bool:
        return deadline_at_ms is None or self.clock.now_ms + delay_ms < deadline_at_ms

    # -- accounting ---------------------------------------------------------------

    def _count(self, name: str, n: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    def _record_backoff(self, key: str, attempt: int, t0: float, t1: float) -> None:
        if self.tracer is not None:
            self.tracer.record(
                "retry_backoff", t0, t1, backend=key, attempt=attempt
            )

    # -- the call surface ---------------------------------------------------------

    def call(
        self,
        key: str,
        fn,
        deadline_at_ms: float | None = None,
        retry_on=(ConnectionFailedError,),
    ):
        """Run ``fn()`` under ``key``'s breaker with retry + backoff.

        No backoff sleep is scheduled that would end at or after
        ``deadline_at_ms`` (the simulated instant the calling query's
        budget runs out; None: only ``max_attempts`` bounds retries).

        Raises :class:`CircuitOpenError` (a ``ConnectionFailedError``)
        instantly when the breaker is open, so callers' replica-failover
        logic treats a known-dead backend like a dead one — without
        paying the partition timeout to find out.
        """
        attempt = 0
        while True:
            breaker = self.breaker(key)
            if not breaker.allow():
                self._count("resilience.fast_fails")
                raise CircuitOpenError(key, breaker.retry_after_ms())
            attempt += 1
            try:
                result = fn()
            except retry_on:
                if breaker.record_failure():
                    self._count("resilience.breaker_opens")
                self._count("resilience.failures")
                if attempt >= self.policy.max_attempts:
                    raise
                delay = self.policy.backoff_ms(attempt)
                if not self._budget_allows(delay, deadline_at_ms):
                    self._count("resilience.deadline_exhausted")
                    raise
                if delay > 0:
                    t0 = self.clock.now_ms
                    self.clock.advance_ms(delay)
                    self._record_backoff(key, attempt, t0, self.clock.now_ms)
                self._count("resilience.retries")
                continue
            breaker.record_success()
            return result

    # -- views --------------------------------------------------------------------

    def stats(self) -> dict:
        """Wire-safe summary for ``dataaccess.stats``."""
        count = 0.0
        if self.metrics is not None:
            count = self.metrics.counter("resilience.retries").value
        return {
            "retries": int(count),
            "breakers": {
                b.key: {
                    "state": b.state,
                    "consecutive_failures": b.consecutive_failures,
                    "opens": b.opens,
                    "fast_fails": b.fast_fails,
                }
                for b in self.breakers()
            },
        }
