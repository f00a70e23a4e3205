"""Trace/metrics report CLI: ``python -m repro.tools.tracereport``.

Builds the built-in two-server observed federation, runs a distributed
query plus a self-querying monitor query, and reports the resulting
span tree and metrics summary — the quickest way to *see* what the
observability layer records::

    python -m repro.tools.tracereport              # human-readable report
    python -m repro.tools.tracereport --json       # machine-readable report
    python -m repro.tools.tracereport --json --out BENCH_federation.json

The ``--json`` form is what the benchmark suite uses to emit its
``BENCH_federation.json`` artifact.
"""

from __future__ import annotations

from repro.obs.trace import format_span_tree
from repro.tools.demo import report_main, two_server_federation

#: the distributed query the demo federation runs (events on server A,
#: runs on server B — so executing it on A forces an RLS lookup and a
#: remote Clarens hop)
DEMO_SQL = (
    "SELECT e.energy, r.detector FROM events e "
    "INNER JOIN runs r ON e.run_id = r.run_id WHERE r.good = 1"
)

MONITOR_SQL = "SELECT COUNT(*) FROM monitor_spans"


def build_observed_federation(cache: bool = False):
    """Two observing JClarens servers, one database each.

    Returns ``(federation, handle_a, handle_b)``; ``events`` lives on
    server A, ``runs`` on server B, and both servers publish their
    monitor tables to the RLS. ``cache=True`` additionally turns on the
    multi-level query cache on both servers.
    """
    return two_server_federation(observe=True, cache=cache)[:3]


def build_report() -> dict:
    """Run the demo workload and assemble the full telemetry report.

    The demo query runs twice on a cached federation: the reported
    trace is the cold run's; the warm repeat exercises the plan,
    sub-result and remote-answer caches, whose stats land in the
    ``cache`` block.
    """
    fed, a, b = build_observed_federation(cache=True)
    service = a.service
    answer = service.execute(DEMO_SQL)
    trace_id = service.tracer.last_trace_id
    spans = service.tracer.spans_for(trace_id)
    query_rec = service.tracer.queries[-1]

    warm_t0 = fed.clock.now_ms
    service.execute(DEMO_SQL)
    warm_ms = fed.clock.now_ms - warm_t0

    monitor = service.execute(MONITOR_SQL)
    monitor_span_count = int(monitor.rows[0][0])

    return {
        "trace_id": trace_id,
        "sql": DEMO_SQL,
        "rows": answer.row_count,
        "distributed": answer.distributed,
        "servers_accessed": answer.servers_accessed,
        "total_ms": round(query_rec.duration_ms, 3),
        "warm_ms": round(warm_ms, 3),
        "spans": [s.as_dict() for s in spans],
        "tree": format_span_tree(spans),
        "metrics": {
            "jclarens-a": service.metrics.as_dict(),
            "jclarens-b": b.service.metrics.as_dict(),
        },
        "cache": service.cache.stats(),
        "monitor_span_count": monitor_span_count,
        "monitor_sql": MONITOR_SQL,
    }


def _print_human(report: dict) -> None:
    print(f"trace {report['trace_id']}  ({report['total_ms']} ms simulated)")
    print(f"query: {report['sql']}")
    print(
        f"rows={report['rows']} distributed={report['distributed']} "
        f"servers={report['servers_accessed']}"
    )
    print()
    for line in report["tree"]:
        print(line)
    print()
    print(f"{report['monitor_sql']!r} -> {report['monitor_span_count']} spans")
    print()
    cache = report["cache"]
    print(
        f"warm repeat: {report['warm_ms']} ms "
        f"(cold {report['total_ms']} ms) — "
        f"plan hit-rate {cache['plan']['hit_rate']:g}, "
        f"sub hit-rate {cache['sub']['hit_rate']:g}, "
        f"{cache['sub']['entries']} sub-results "
        f"({cache['sub']['bytes']} bytes) cached"
    )
    print()
    for server, metrics in report["metrics"].items():
        print(f"[{server}]")
        for name, value in metrics["counters"].items():
            print(f"  counter   {name:30} {value:g}")
        for name, stats in metrics["histograms"].items():
            print(
                f"  histogram {name:30} count={stats['count']:g} "
                f"p50={stats['p50']:g} p95={stats['p95']:g} p99={stats['p99']:g}"
            )


def main(argv: list[str] | None = None) -> int:
    return report_main(
        argv,
        prog="python -m repro.tools.tracereport",
        description="span-tree and metrics report for the demo federation",
        build_report=build_report,
        print_human=_print_human,
    )


if __name__ == "__main__":
    raise SystemExit(main())
