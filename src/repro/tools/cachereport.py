"""Cache effectiveness report CLI: ``python -m repro.tools.cachereport``.

Builds a cached (non-observing, so forwarded sub-queries keep stable
wire shapes and the remote-answer level can hit) two-server federation,
runs the distributed demo query cold and warm, then demonstrates
epoch-based invalidation with a live schema change::

    python -m repro.tools.cachereport              # human-readable report
    python -m repro.tools.cachereport --json       # machine-readable report
    python -m repro.tools.cachereport --json --out BENCH_cachereport.json
"""

from __future__ import annotations

from repro.tools.demo import report_main, two_server_federation
from repro.tools.tracereport import DEMO_SQL


def build_cached_federation():
    """Two caching JClarens servers (no tracing), one database each."""
    return two_server_federation(cache=True)


def build_report() -> dict:
    """Cold run, warm run, schema-change invalidation, fresh re-run."""
    fed, a, b, events, _runs = build_cached_federation()
    service = a.service

    t0 = fed.clock.now_ms
    cold = service.execute(DEMO_SQL)
    cold_ms = fed.clock.now_ms - t0

    t1 = fed.clock.now_ms
    warm = service.execute(DEMO_SQL)
    warm_ms = fed.clock.now_ms - t1
    warm_stats = service.cache.stats()

    # Invalidate by changing the events schema: the §4.9 tracker's md5
    # diff bumps the database's epoch, and the next run is cold again.
    events.execute("ALTER TABLE EVT ADD COLUMN EXTRA INT")
    service.tracker.poll()
    t2 = fed.clock.now_ms
    fresh = service.execute(DEMO_SQL)
    fresh_ms = fed.clock.now_ms - t2

    return {
        "sql": DEMO_SQL,
        "rows": cold.row_count,
        "cold_ms": round(cold_ms, 3),
        "warm_ms": round(warm_ms, 3),
        "speedup": round(cold_ms / warm_ms, 2) if warm_ms else None,
        "warm_rows_identical": warm.rows == cold.rows,
        "post_invalidation_ms": round(fresh_ms, 3),
        "post_invalidation_rows_identical": fresh.rows == cold.rows,
        "cache_after_warm": warm_stats,
        "cache_after_invalidation": service.cache.stats(),
        "remote_server_cache": b.service.cache.stats(),
    }


def _print_human(report: dict) -> None:
    print(f"query: {report['sql']}")
    print(
        f"cold {report['cold_ms']} ms -> warm {report['warm_ms']} ms "
        f"({report['speedup']}x), rows identical: "
        f"{report['warm_rows_identical']}"
    )
    stats = report["cache_after_warm"]
    for level in ("plan", "sub", "remote"):
        s = stats[level]
        print(
            f"  {level:6} entries={s['entries']} bytes={s['bytes']} "
            f"hits={s['hits']} misses={s['misses']} hit_rate={s['hit_rate']:g}"
        )
    print(
        f"schema change + tracker poll -> epoch generation "
        f"{report['cache_after_invalidation']['epoch_generation']}, "
        f"re-run {report['post_invalidation_ms']} ms, rows identical: "
        f"{report['post_invalidation_rows_identical']}"
    )


def main(argv: list[str] | None = None) -> int:
    return report_main(
        argv,
        prog="python -m repro.tools.cachereport",
        description="cache effectiveness report for the demo federation",
        build_report=build_report,
        print_human=_print_human,
    )


if __name__ == "__main__":
    raise SystemExit(main())
