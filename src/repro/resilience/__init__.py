"""repro.resilience — retry/backoff, circuit breakers, chaos schedules.

Opt-in failure handling for the federation (``resilience=True`` on
``create_server`` / :class:`~repro.core.service.DataAccessService` /
:class:`~repro.unity.driver.UnityDriver`; bit-for-bit unchanged when
off). See :mod:`repro.resilience.manager` for the call surface,
:mod:`repro.resilience.chaos` for the scripted fault-injection harness.
"""

from repro.common.errors import CircuitOpenError
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.chaos import ChaosDriver, ChaosEvent, ChaosSchedule
from repro.resilience.manager import ResilienceConfig, ResilienceManager
from repro.resilience.partial import SubQueryFailure

__all__ = [
    "CLOSED",
    "ChaosDriver",
    "ChaosEvent",
    "ChaosSchedule",
    "CircuitBreaker",
    "CircuitOpenError",
    "HALF_OPEN",
    "OPEN",
    "ResilienceConfig",
    "ResilienceManager",
    "SubQueryFailure",
]
