"""The federation's metrics registry: counters and histograms.

Instruments are named, created on first touch, and cheap enough to
leave always-on — the data access service's old ad-hoc ``stats()``
counters are now thin views over this registry, so there is exactly one
source of truth for operational numbers. Histograms are fed simulated
milliseconds (never host wall-time) and report nearest-rank
percentiles, the numbers the ROADMAP's perf PRs need to move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        self.value += n


@dataclass
class Histogram:
    """A distribution of observed values with nearest-rank percentiles."""

    name: str
    values: list = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return float(sum(self.values))

    @property
    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.values else 0.0

    def percentile(self, p: float, default: float | None = 0.0):
        """Nearest-rank percentile; p in (0, 100].

        An empty histogram returns ``default`` — 0.0 by default so
        existing displays keep working, but callers that must not
        mistake "no data" for "0 ms" pass ``default=None``.
        """
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if not self.values:
            return default
        ordered = sorted(self.values)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def stats(self) -> dict:
        """The summary row set this histogram contributes to monitoring."""
        return {
            "count": float(self.count),
            "sum": round(self.sum, 6),
            "min": round(self.min, 6),
            "max": round(self.max, 6),
            "mean": round(self.mean, 6),
            "p50": round(self.p50, 6),
            "p95": round(self.p95, 6),
            "p99": round(self.p99, 6),
        }


class MetricsRegistry:
    """Named instruments for one server (or pipeline, or driver).

    Calling the registry returns its wire-safe snapshot, which lets a
    Clarens service expose the registry object *itself* as the
    ``dataaccess.metrics`` web method.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- instrument access (create on first touch) ------------------------------

    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = Histogram(name)
        return inst

    # -- views -------------------------------------------------------------------

    def snapshot_rows(self) -> list[tuple[str, str, str, float]]:
        """(metric, kind, stat, value) rows — the ``monitor_metrics`` shape."""
        rows: list[tuple[str, str, str, float]] = []
        for name in sorted(self.counters):
            rows.append((name, "counter", "value", float(self.counters[name].value)))
        for name in sorted(self.histograms):
            for stat, value in self.histograms[name].stats().items():
                rows.append((name, "histogram", stat, float(value)))
        return rows

    def as_dict(self) -> dict:
        """Wire-safe snapshot (survives the XML-RPC codec)."""
        return {
            "counters": {n: float(c.value) for n, c in sorted(self.counters.items())},
            "histograms": {
                n: h.stats() for n, h in sorted(self.histograms.items())
            },
        }

    def __call__(self):
        """Clarens method: snapshot of every instrument on this server."""
        return self.as_dict()
