"""Federation-wide telemetry: tracing, metrics, self-querying monitors.

The *capture* side (PR 2), all stamped from the simulated clock:

* :mod:`repro.obs.trace` — span-based query-lifecycle tracing with
  parent/child propagation across Clarens hops;
* :mod:`repro.obs.metrics` — a named-instrument registry (counters
  and percentile histograms) that is the single source of truth
  behind ``dataaccess.stats``;
* :mod:`repro.obs.monitor` — R-GMA-style monitor tables: the
  federation publishes its own telemetry as relational tables and
  answers plain federated SQL about itself.

And the *analysis* side (obs v2), three cooperating layers on top:

* :mod:`repro.obs.profiler` — EXPLAIN-ANALYZE-style per-operator cost
  profiles folded from completed span trees, with folded-stack export;
* :mod:`repro.obs.archive` — an R-GMA-archiver-style time-series store
  snapshotting every instrument into multi-resolution rollup rings,
  published as the ``monitor_history`` federated table;
* :mod:`repro.obs.slo` — declarative latency/error-budget objectives
  with fast/slow burn-rate alerting and the RED-style
  ``dataaccess.health`` verdict.
"""

from repro.obs.archive import (
    RAW_RESOLUTION_MS,
    Bucket,
    MetricsArchiver,
    SeriesArchive,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.monitor import (
    MONITOR_TABLES,
    TIMESTAMP_COLUMN,
    MonitorDatabase,
)
from repro.obs.profiler import (
    OperatorCost,
    QueryProfile,
    QueryProfiler,
)
from repro.obs.slo import SLO, Alert, SLOEngine, default_slos
from repro.obs.trace import (
    NOOP_SPAN,
    QueryRecord,
    Span,
    Tracer,
    format_span_tree,
)

__all__ = [
    "Alert",
    "Bucket",
    "Counter",
    "Histogram",
    "MetricsArchiver",
    "MetricsRegistry",
    "MONITOR_TABLES",
    "MonitorDatabase",
    "NOOP_SPAN",
    "OperatorCost",
    "QueryProfile",
    "QueryProfiler",
    "QueryRecord",
    "RAW_RESOLUTION_MS",
    "SeriesArchive",
    "SLO",
    "SLOEngine",
    "Span",
    "TIMESTAMP_COLUMN",
    "Tracer",
    "default_slos",
    "format_span_tree",
]
