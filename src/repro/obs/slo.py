"""Declarative SLOs with error-budget burn-rate alerting.

"When Database Systems Meet the Grid" argues a federated DB *service*
survives on operational feedback, not heroics: someone has to notice
the error budget burning before the users do. An :class:`SLO` declares
an objective over the archived telemetry — either an **error-rate**
objective (fraction of queries that fail or degrade to partial) or a
**latency** objective (fraction of queries beyond a threshold,
counted per-observation by the archiver) — and the :class:`SLOEngine`
evaluates it over two windows in the classic fast/slow burn-rate
pattern: a fast window catching sharp regressions (pages) and a slow
window catching slow leaks (tickets).

Alert transitions append to an immutable log published as the
``monitor_alerts`` federated table, and :meth:`SLOEngine.health` folds
SLO status, circuit-breaker states (PR 4) and cache health (PR 3) into
one RED-style verdict — the ``dataaccess.health`` wire method.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.archive import MetricsArchiver

#: latency kind: the histogram every latency SLO watches
LATENCY_METRIC = "query_ms"
#: errors kind: counters summed into the attempted / bad totals
TOTAL_METRICS = ("queries", "query_errors")
BAD_METRICS = ("query_errors", "partial_answers")
#: the page (fast) and ticket (slow) evaluation windows
FAST_WINDOW_MS = 5_000.0
SLOW_WINDOW_MS = 60_000.0
#: burn-rate thresholds (1.0 = spending budget exactly on schedule)
FAST_BURN_THRESHOLD = 14.4
SLOW_BURN_THRESHOLD = 6.0


@dataclass(frozen=True)
class SLO:
    """One declarative objective over archived telemetry."""

    name: str
    kind: str = "errors"  # 'errors' | 'latency'
    #: fraction of events that must be good (0.99 → 1% error budget)
    objective: float = 0.99
    #: latency kind: a query slower than this is bad
    threshold_ms: float = 1_000.0

    def __post_init__(self):
        if self.kind not in ("errors", "latency"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {self.objective}")

    @property
    def budget(self) -> float:
        """The tolerated bad fraction (1 - objective)."""
        return 1.0 - self.objective


def default_slos() -> tuple[SLO, ...]:
    """The stock federation objectives: availability + tail latency."""
    return (
        SLO(name="availability", kind="errors", objective=0.99),
        SLO(name="latency", kind="latency", objective=0.95, threshold_ms=1_000.0),
    )


@dataclass
class Alert:
    """One alert transition (fire or resolve), append-only."""

    ts_ms: float
    slo: str
    severity: str  # 'page' (fast burn) | 'ticket' (slow burn)
    state: str     # 'firing' | 'resolved'
    burn_rate: float
    window_ms: float
    message: str

    def as_row(self) -> tuple:
        """``monitor_alerts`` row shape."""
        return (
            float(self.ts_ms),
            self.slo,
            self.severity,
            self.state,
            float(self.burn_rate),
            float(self.window_ms),
            self.message,
        )

    def as_dict(self) -> dict:
        return {
            "ts_ms": float(self.ts_ms),
            "slo": self.slo,
            "severity": self.severity,
            "state": self.state,
            "burn_rate": float(self.burn_rate),
            "window_ms": float(self.window_ms),
            "message": self.message,
        }


@dataclass
class _BurnReading:
    """One window's burn computation (None burn == no data)."""

    burn: float | None
    bad: float
    total: float


class SLOEngine:
    """Evaluates SLOs over the archive; fires burn-rate alerts."""

    def __init__(
        self,
        archiver: MetricsArchiver,
        clock,
        slos: tuple | None = None,
        resilience=None,
        cache=None,
    ):
        self.archiver = archiver
        self.clock = clock
        self.slos: tuple[SLO, ...] = tuple(slos) if slos else default_slos()
        self.resilience = resilience
        self.cache = cache
        #: append-only alert transition log (→ monitor_alerts)
        self.alerts: list[Alert] = []
        self._firing: dict[tuple[str, str], Alert] = {}
        for slo in self.slos:
            if slo.kind == "latency":
                archiver.watch_threshold(LATENCY_METRIC, slo.threshold_ms)

    # -- burn math ----------------------------------------------------------------

    def _counts(self, slo: SLO, window_ms: float) -> tuple[float, float]:
        """(total, bad) events inside the window for one SLO."""
        if slo.kind == "latency":
            window = self.archiver.window(LATENCY_METRIC, window_ms)
            if window is None:
                return 0.0, 0.0
            return window.samples, window.bad
        total = bad = 0.0
        for name in TOTAL_METRICS:
            window = self.archiver.window(name, window_ms)
            if window is not None:
                total += window.total
        for name in BAD_METRICS:
            window = self.archiver.window(name, window_ms)
            if window is not None:
                bad += window.total
        return total, bad

    def _burn(self, slo: SLO, window_ms: float) -> _BurnReading:
        total, bad = self._counts(slo, window_ms)
        if total <= 0:
            # 'no traffic' is NOT 'no errors': the empty-histogram guard
            return _BurnReading(None, bad, total)
        return _BurnReading((bad / total) / slo.budget, bad, total)

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self) -> list[Alert]:
        """One evaluation pass; returns the alert transitions it caused."""
        changed: list[Alert] = []
        for slo in self.slos:
            fast = self._burn(slo, FAST_WINDOW_MS)
            slow = self._burn(slo, SLOW_WINDOW_MS)
            self._transition(
                slo, "page", fast, FAST_BURN_THRESHOLD, FAST_WINDOW_MS, changed
            )
            self._transition(
                slo, "ticket", slow, SLOW_BURN_THRESHOLD, SLOW_WINDOW_MS, changed
            )
        return changed

    def _transition(
        self,
        slo: SLO,
        severity: str,
        reading: _BurnReading,
        threshold: float,
        window_ms: float,
        changed: list,
    ) -> None:
        key = (slo.name, severity)
        firing = key in self._firing
        if reading.burn is not None and reading.burn >= threshold and not firing:
            alert = Alert(
                ts_ms=self.clock.now_ms,
                slo=slo.name,
                severity=severity,
                state="firing",
                burn_rate=reading.burn,
                window_ms=window_ms,
                message=(
                    f"{slo.name}: burn {reading.burn:.1f}x budget over "
                    f"{window_ms:g} ms ({reading.bad:g}/{reading.total:g} bad)"
                ),
            )
            self._firing[key] = alert
            self.alerts.append(alert)
            changed.append(alert)
        elif firing and (reading.burn is None or reading.burn < threshold / 2.0):
            # hysteresis: resolve at half the firing threshold
            del self._firing[key]
            alert = Alert(
                ts_ms=self.clock.now_ms,
                slo=slo.name,
                severity=severity,
                state="resolved",
                burn_rate=0.0 if reading.burn is None else reading.burn,
                window_ms=window_ms,
                message=f"{slo.name}: burn back under {threshold / 2.0:g}x",
            )
            self.alerts.append(alert)
            changed.append(alert)

    # -- views --------------------------------------------------------------------

    def firing(self) -> list[Alert]:
        """Currently firing alerts, pages first."""
        return sorted(
            self._firing.values(), key=lambda a: (a.severity != "page", a.slo)
        )

    def alert_rows(self) -> list[tuple]:
        """``monitor_alerts`` rows: the full transition log."""
        return [alert.as_row() for alert in self.alerts]

    def status(self) -> dict:
        """Per-SLO burn status (wire-safe)."""
        out: dict = {}
        for slo in self.slos:
            fast = self._burn(slo, FAST_WINDOW_MS)
            slow = self._burn(slo, SLOW_WINDOW_MS)
            if fast.burn is None and slow.burn is None:
                state = "no_data"
            elif (slo.name, "page") in self._firing:
                state = "fast_burn"
            elif (slo.name, "ticket") in self._firing:
                state = "slow_burn"
            else:
                state = "ok"
            out[slo.name] = {
                "kind": slo.kind,
                "objective": slo.objective,
                "state": state,
                "fast_burn": fast.burn,
                "slow_burn": slow.burn,
                "bad": slow.bad,
                "total": slow.total,
            }
        return out

    def health(self) -> dict:
        """The RED-style verdict: Rate, Errors, Duration + components.

        ``verdict`` is ``ok`` / ``degraded`` / ``critical``: critical
        when any page-severity alert is firing, degraded on ticket
        alerts or open circuit breakers.
        """
        now = self.clock.now_ms
        window_ms = FAST_WINDOW_MS
        queries = self.archiver.window("queries", window_ms)
        errors = self.archiver.window("query_errors", window_ms)
        partials = self.archiver.window("partial_answers", window_ms)
        attempted = (queries.total if queries else 0.0) + (
            errors.total if errors else 0.0
        )
        bad = (errors.total if errors else 0.0) + (
            partials.total if partials else 0.0
        )
        series = self.archiver.series_for("query_ms")
        p99 = (
            series.window_percentile(99, window_ms, now) if series else None
        )

        verdict = "ok"
        firing = self.firing()
        if any(a.severity == "ticket" for a in firing):
            verdict = "degraded"
        breakers = {"total": 0, "open": 0, "half_open": 0}
        if self.resilience is not None:
            for breaker in self.resilience.breakers():
                breakers["total"] += 1
                if breaker.state == "open":
                    breakers["open"] += 1
                elif breaker.state == "half_open":
                    breakers["half_open"] += 1
            if breakers["open"]:
                verdict = "degraded"
        if any(a.severity == "page" for a in firing):
            verdict = "critical"

        out = {
            "observed": True,
            "verdict": verdict,
            "window_ms": float(window_ms),
            "rate_qps": round(attempted / (window_ms / 1000.0), 6),
            "error_fraction": (
                round(bad / attempted, 6) if attempted > 0 else None
            ),
            "p99_ms": None if p99 is None else round(p99, 3),
            "slos": self.status(),
            "alerts_firing": [a.as_dict() for a in firing],
            "alerts_total": len(self.alerts),
            "breakers": breakers,
        }
        if self.cache is not None:
            stats = self.cache.stats()
            out["cache"] = {
                "plan_hit_rate": stats["plan"]["hit_rate"],
                "sub_hit_rate": stats["sub"]["hit_rate"],
                "remote_hit_rate": stats["remote"]["hit_rate"],
            }
        return out
