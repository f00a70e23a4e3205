"""R-GMA-style self-querying monitor tables.

R-GMA's insight (Cooke et al.) is that Grid monitoring should itself be
published and consumed *as relational tables*: producers insert rows,
consumers run plain SQL. We adopt that literally — each observing
JClarens server owns a :class:`MonitorDatabase`, a real in-memory
:class:`~repro.engine.database.Database` whose tables are regenerated
from the live tracer and metrics registry every time a query touches
them. Because it registers through the ordinary
``DataAccessService.register_database`` path, the federation machinery
(dictionary, RLS publication, decomposition, routing, remote
forwarding) applies unchanged: clients can ``SELECT stage,
AVG(duration_ms) FROM monitor_spans GROUP BY stage`` — locally, or
against a *remote* peer's monitor tables discovered through the RLS.

R-GMA also pairs producers with **archivers** retaining history; the
``monitor_history`` (archived metric buckets at every rollup
resolution), ``monitor_profile`` (per-operator costs of the slowest
retained queries) and ``monitor_alerts`` (SLO burn-rate transitions)
tables publish that side. Every monitor table carries the same
``ts_ms DOUBLE`` simclock timestamp column so history joins line up.
"""

from __future__ import annotations

from repro.engine.database import Database
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

#: the simclock timestamp column every monitor table carries
TIMESTAMP_COLUMN = "ts_ms"
TIMESTAMP_TYPE = "DOUBLE"

#: DDL for the monitor tables (lower-case physical names double as
#: the logical names the federation publishes).
_DDL = (
    """CREATE TABLE monitor_spans (
        trace_id VARCHAR(64), span_id VARCHAR(64), parent_id VARCHAR(64),
        stage VARCHAR(32), server VARCHAR(64),
        start_ms DOUBLE, end_ms DOUBLE, duration_ms DOUBLE,
        route VARCHAR(16), row_count INT, error VARCHAR(200),
        ts_ms DOUBLE
    )""",
    """CREATE TABLE monitor_metrics (
        metric VARCHAR(100), kind VARCHAR(16), stat VARCHAR(8), value DOUBLE,
        ts_ms DOUBLE
    )""",
    """CREATE TABLE monitor_queries (
        trace_id VARCHAR(64), server VARCHAR(64), sql_text VARCHAR(500),
        distributed INT, row_count INT, duration_ms DOUBLE,
        servers INT, status VARCHAR(80), ts_ms DOUBLE
    )""",
    """CREATE TABLE monitor_cache (
        cache_level VARCHAR(16), stat VARCHAR(20), value DOUBLE, ts_ms DOUBLE
    )""",
    """CREATE TABLE monitor_breakers (
        breaker_key VARCHAR(120), state VARCHAR(12),
        consecutive_failures INT, opens INT, fast_fails INT,
        opened_at_ms DOUBLE, ts_ms DOUBLE
    )""",
    """CREATE TABLE monitor_history (
        ts_ms DOUBLE, metric VARCHAR(100), kind VARCHAR(16), res_ms DOUBLE,
        samples INT, total DOUBLE, vmin DOUBLE, vmax DOUBLE,
        mean_val DOUBLE, last_val DOUBLE, bad INT
    )""",
    """CREATE TABLE monitor_profile (
        ts_ms DOUBLE, trace_id VARCHAR(64), shape VARCHAR(500),
        server VARCHAR(64), stage VARCHAR(32), op_server VARCHAR(64),
        calls INT, self_ms DOUBLE, cum_ms DOUBLE, total_ms DOUBLE
    )""",
    """CREATE TABLE monitor_alerts (
        ts_ms DOUBLE, slo VARCHAR(64), severity VARCHAR(12),
        state VARCHAR(12), burn_rate DOUBLE, window_ms DOUBLE,
        message VARCHAR(200)
    )""",
)

MONITOR_TABLES = (
    "monitor_spans",
    "monitor_metrics",
    "monitor_queries",
    "monitor_cache",
    "monitor_breakers",
    "monitor_history",
    "monitor_profile",
    "monitor_alerts",
)


class MonitorDatabase(Database):
    """An engine database whose tables mirror live telemetry.

    The tables refresh lazily on access (R-GMA's latest-state producer),
    so ``SELECT COUNT(*) FROM monitor_spans`` executed through the
    federation returns whatever the tracer holds at fetch time —
    including the spans of the monitoring query itself that finished
    before the fetch. The archiver/profiler/SLO tables are the
    R-GMA *archiver* side: retained history, not just the instant.
    """

    def __init__(
        self,
        name: str,
        tracer: Tracer,
        metrics: MetricsRegistry,
        *,
        clock,
        profiler,
        archiver,
        slo,
        cache=None,
        resilience=None,
        vendor: str = "mysql",
    ):
        super().__init__(name, vendor)
        self.tracer = tracer
        self.metrics = metrics
        #: optional :class:`repro.cache.CacheManager` feeding monitor_cache
        self.cache = cache
        #: optional :class:`repro.resilience.ResilienceManager` feeding
        #: monitor_breakers (one row per circuit breaker)
        self.resilience = resilience
        #: the simclock stamping every row's ``ts_ms``
        self.clock = clock
        #: :class:`repro.obs.profiler.QueryProfiler` → monitor_profile
        self.profiler = profiler
        #: :class:`repro.obs.archive.MetricsArchiver` → monitor_history
        self.archiver = archiver
        #: :class:`repro.obs.slo.SLOEngine` → monitor_alerts
        self.slo = slo
        self._refreshing = False
        for ddl in _DDL:
            self.execute(ddl)

    # -- refresh-on-read ---------------------------------------------------------

    def resolve_table(self, name: str):
        if not self._refreshing:
            self.refresh()
        return super().resolve_table(name)

    def refresh(self) -> None:
        """Regenerate every monitor table from the live telemetry stack."""
        self._refreshing = True
        now = self.clock.now_ms
        try:
            spans = self.catalog.get_table("monitor_spans")
            spans.replace_rows(
                [
                    (
                        s.trace_id,
                        s.span_id,
                        s.parent_id,
                        s.stage,
                        s.server,
                        float(s.start_ms),
                        float(s.end_ms if s.end_ms is not None else s.start_ms),
                        float(s.duration_ms),
                        _text_or_none(s.attrs.get("route")),
                        _int_or_none(s.attrs.get("rows")),
                        s.error,
                        float(s.end_ms if s.end_ms is not None else s.start_ms),
                    )
                    for s in self.tracer.spans
                ]
            )
            metrics = self.catalog.get_table("monitor_metrics")
            metrics.replace_rows(
                [
                    (metric, kind, stat, float(value), now)
                    for metric, kind, stat, value in self.metrics.snapshot_rows()
                ]
            )
            queries = self.catalog.get_table("monitor_queries")
            queries.replace_rows(
                [
                    (
                        q.trace_id,
                        q.server,
                        q.sql,
                        1 if q.distributed else 0,
                        int(q.row_count),
                        float(q.duration_ms),
                        int(q.servers),
                        q.status,
                        float(q.end_ms),
                    )
                    for q in self.tracer.queries
                ]
            )
            cache = self.catalog.get_table("monitor_cache")
            cache.replace_rows(
                []
                if self.cache is None
                else [
                    (level, stat, float(value), now)
                    for level, stat, value in self.cache.stat_rows()
                ]
            )
            breakers = self.catalog.get_table("monitor_breakers")
            breakers.replace_rows(
                []
                if self.resilience is None
                else [
                    (*row, now) for row in self.resilience.breaker_rows()
                ]
            )
            history = self.catalog.get_table("monitor_history")
            history.replace_rows(self.archiver.history_rows())
            profile = self.catalog.get_table("monitor_profile")
            profile.replace_rows(self.profiler.profile_rows())
            alerts = self.catalog.get_table("monitor_alerts")
            alerts.replace_rows(self.slo.alert_rows())
        finally:
            self._refreshing = False


def _text_or_none(value) -> str | None:
    return None if value is None else str(value)


def _int_or_none(value) -> int | None:
    return None if value is None else int(value)
