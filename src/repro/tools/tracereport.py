"""Trace/metrics report CLI: ``python -m repro.tools.tracereport``.

Builds the built-in two-server observed federation, runs a distributed
query plus a self-querying monitor query, and reports the resulting
span tree and metrics summary — the quickest way to *see* what the
observability layer records::

    python -m repro.tools.tracereport              # human-readable report
    python -m repro.tools.tracereport --json       # machine-readable report
    python -m repro.tools.tracereport --json --out BENCH_federation.json
    python -m repro.tools.tracereport --self-test  # fixture-free CI gate

The ``--json`` form is what the benchmark suite uses to emit its
``BENCH_federation.json`` artifact.
"""

from __future__ import annotations

from repro.obs.trace import Span, format_span_tree
from repro.tools.demo import report_main, run_checks, two_server_federation

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
    trace is the cold run's; the warm repeat exercises the plan and
    sub-result caches, whose stats land in the ``cache`` block.
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


def _self_test() -> int:
    """Fixture-free sanity gate over the whole observability stack."""
    report = build_report()
    spans = [Span.from_dict(d) for d in report["spans"]]
    by_stage: dict[str, list[Span]] = {}
    for span in spans:
        by_stage.setdefault(span.stage, []).append(span)
    roots = [s for s in spans if s.parent_id is None]
    root = roots[0] if roots else None
    ids = {s.span_id for s in spans}
    counters_a = report["metrics"]["jclarens-a"]["counters"]
    hist_a = report["metrics"]["jclarens-a"]["histograms"]

    checks = [
        (
            "one root span, and it is the query stage",
            len(roots) == 1 and roots[0].stage == "query",
        ),
        ("decompose span present", "decompose" in by_stage),
        ("rls_lookup span present", "rls_lookup" in by_stage),
        ("merge span present", "merge" in by_stage),
        ("two subquery spans", len(by_stage.get("subquery", [])) >= 2),
        ("transfer spans present", "transfer" in by_stage),
        (
            "remote server's spans joined the trace",
            any(s.server == "jclarens-b" for s in spans),
        ),
        (
            "every span belongs to the one trace",
            all(s.trace_id == report["trace_id"] for s in spans),
        ),
        (
            "every non-root parent id resolves",
            all(
                s.parent_id in ids
                for s in spans
                if s is not root and s.parent_id is not None
            ),
        ),
        (
            "child spans sit inside the root's interval",
            root is not None
            and all(
                s.start_ms >= root.start_ms - 1e-9
                and (s.end_ms or s.start_ms) <= (root.end_ms or 0) + 1e-9
                for s in spans
                if s is not root and s.server == "jclarens-a"
            ),
        ),
        (
            "root duration equals the reported total",
            root is not None
            and abs(root.duration_ms - report["total_ms"]) < 1e-3,
        ),
        ("distributed answer", bool(report["distributed"])),
        (
            "monitor_spans sees the finished trace",
            report["monitor_span_count"] >= len(spans),
        ),
        ("queries counter incremented", counters_a.get("queries", 0) >= 1),
        ("query_ms histogram fed", hist_a.get("query_ms", {}).get("count", 0) >= 1),
        (
            "remote route counted",
            counters_a.get("subqueries.remote", 0) >= 1,
        ),
        (
            "warm repeat hit the plan cache",
            report["cache"]["plan"]["hits"] >= 1,
        ),
        (
            "warm repeat hit the sub-result cache",
            report["cache"]["sub"]["hits"] >= 1,
        ),
        (
            "warm repeat faster than the cold run",
            report["warm_ms"] < report["total_ms"],
        ),
    ]
    return run_checks(checks)


def main(argv: list[str] | None = None) -> int:
    return report_main(
        argv,
        prog="python -m repro.tools.tracereport",
        description="span-tree and metrics report for the demo federation",
        checks="observability",
        build_report=build_report,
        print_human=_print_human,
        self_test=_self_test,
    )


if __name__ == "__main__":
    raise SystemExit(main())
