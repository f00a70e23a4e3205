"""Scripted fault injection: a timeline of host/link failures.

The network fabric has had ``fail_host``/``fail_link`` primitives since
the seed, but nothing drove them. A :class:`ChaosSchedule` is a sorted
timeline of :class:`ChaosEvent`\\ s expressed in simulated milliseconds;
a :class:`ChaosDriver` binds the schedule to a concrete network + clock
and applies every event whose instant has passed each time ``tick()``
is called (virtual time has no background threads — the workload loop
is the scheduler).

Used by ``python -m repro.tools.chaosreport``, the chaos bench and the
hypothesis chaos property test.
"""

from __future__ import annotations

from dataclasses import dataclass

_ACTIONS = ("fail_host", "restore_host", "fail_link", "restore_link")


@dataclass(frozen=True)
class ChaosEvent:
    """One scripted fault (or repair) at an absolute simulated instant."""

    at_ms: float
    action: str  # one of _ACTIONS
    args: tuple[str, ...]

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown chaos action {self.action!r}")
        want = 1 if self.action.endswith("host") else 2
        if len(self.args) != want:
            raise ValueError(
                f"{self.action} takes {want} argument(s), got {self.args!r}"
            )

    def apply(self, network) -> None:
        """Perform this event on a :class:`~repro.net.network.Network`."""
        getattr(network, self.action)(*self.args)


class ChaosSchedule:
    """An ordered, chainable timeline of fault-injection events."""

    def __init__(self):
        self.events: list[ChaosEvent] = []

    def _add(self, at_ms: float, action: str, *args: str) -> "ChaosSchedule":
        self.events.append(ChaosEvent(float(at_ms), action, tuple(args)))
        self.events.sort(key=lambda e: e.at_ms)
        return self

    def fail_host(self, at_ms: float, host: str) -> "ChaosSchedule":
        """Schedule a host death at ``at_ms``."""
        return self._add(at_ms, "fail_host", host)

    def restore_host(self, at_ms: float, host: str) -> "ChaosSchedule":
        """Schedule a host repair at ``at_ms``."""
        return self._add(at_ms, "restore_host", host)

    def fail_link(self, at_ms: float, a: str, b: str) -> "ChaosSchedule":
        """Schedule a link cut at ``at_ms``."""
        return self._add(at_ms, "fail_link", a, b)

    def restore_link(self, at_ms: float, a: str, b: str) -> "ChaosSchedule":
        """Schedule a link repair at ``at_ms``."""
        return self._add(at_ms, "restore_link", a, b)

    def hosts_killed(self) -> set[str]:
        """Every host the schedule fails at least once."""
        return {
            e.args[0] for e in self.events if e.action == "fail_host"
        }

    def __len__(self) -> int:
        return len(self.events)

    def driver(self, network, clock) -> "ChaosDriver":
        """Bind this schedule to a live network + clock."""
        return ChaosDriver(self, network, clock)


class ChaosDriver:
    """Applies a schedule's due events against one network as time passes."""

    def __init__(self, schedule: ChaosSchedule, network, clock):
        self.schedule = schedule
        self.network = network
        self.clock = clock
        self._cursor = 0
        self.applied: list[ChaosEvent] = []

    def tick(self) -> list[ChaosEvent]:
        """Apply every event due at the clock's current instant."""
        now = self.clock.now_ms
        fired: list[ChaosEvent] = []
        events = self.schedule.events
        while self._cursor < len(events) and events[self._cursor].at_ms <= now:
            event = events[self._cursor]
            event.apply(self.network)
            fired.append(event)
            self._cursor += 1
        self.applied.extend(fired)
        return fired

    def finish(self) -> list[ChaosEvent]:
        """Apply every remaining event regardless of the clock (cleanup)."""
        fired = []
        events = self.schedule.events
        while self._cursor < len(events):
            event = events[self._cursor]
            event.apply(self.network)
            fired.append(event)
            self._cursor += 1
        self.applied.extend(fired)
        return fired
