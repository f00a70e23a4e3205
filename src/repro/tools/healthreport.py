"""Federation health report CLI: ``python -m repro.tools.healthreport``.

The obs-v2 dashboard in one command: builds an *observed* resilient
federation ("events" replicated on two database hosts behind one
JClarens server, SLOs + archiver + profiler on), drives it through a
healthy phase, a scripted chaos blackout and a recovery phase, and
reports what ``dataaccess.health`` said at each point — including the
SLO burn-rate alerts the blackout fired, the per-operator profile of a
query, and the same telemetry re-read through plain federated SQL
against ``monitor_alerts`` / ``monitor_history``::

    python -m repro.tools.healthreport              # human-readable report
    python -m repro.tools.healthreport --json       # machine-readable report
    python -m repro.tools.healthreport --json --out BENCH_healthreport.json
"""

from __future__ import annotations

from repro.obs.archive import RAW_RESOLUTION_MS
from repro.obs.slo import SLO
from repro.resilience import ChaosSchedule, ResilienceConfig
from repro.tools.demo import replicated_federation, report_main

DEMO_SQL = "SELECT COUNT(*), SUM(energy) FROM events"

#: workload cadence and chaos timeline (all relative, simulated ms)
QUERY_SPACING_MS = 500.0
HEALTHY_QUERIES = 8
CHAOS_QUERIES = 10
RECOVERY_QUERIES = 12
BREAKER_COOLDOWN_MS = 4_000.0

#: tight objectives so ten partial answers visibly torch the budget
DEMO_SLOS = (
    SLO(name="availability", kind="errors", objective=0.99),
    SLO(name="latency", kind="latency", objective=0.95, threshold_ms=2_000.0),
)


def build_observed_federation():
    """One observed+resilient server, 'events' replicated on two hosts."""
    config = ResilienceConfig(cooldown_ms=BREAKER_COOLDOWN_MS)
    return replicated_federation(
        observe=True, cache=True, resilience=config, slos=DEMO_SLOS
    )


def _run_phase(fed, service, seq, n: int, allow_partial: bool) -> dict:
    """Run n spaced queries, then ask the server how it feels.

    Each query gets a distinct literal (from ``seq``) so the sub-result
    cache cannot absorb the workload — every query must actually reach
    the replicated backends, which is what the chaos phase is testing.
    """
    outcomes = {"ok": 0, "partial": 0}
    for _ in range(n):
        sql = DEMO_SQL + f" WHERE event_id >= {next(seq)}"
        answer = service.execute(sql, allow_partial=allow_partial)
        outcomes["partial" if answer.partial else "ok"] += 1
        fed.clock.advance_ms(QUERY_SPACING_MS)
    health = service.health()
    return {
        "outcomes": outcomes,
        "verdict": health["verdict"],
        "health": health,
    }


def _sql_value(service, sql: str):
    return service.execute(sql).rows[0][0]


def build_report() -> dict:
    """Healthy -> blackout (budget burns, alerts fire) -> recovery."""
    fed, server = build_observed_federation()
    service = server.service
    seq = iter(range(10_000))

    healthy = _run_phase(fed, service, seq, HEALTHY_QUERIES, allow_partial=False)

    base = fed.clock.now_ms
    restore_at = base + CHAOS_QUERIES * QUERY_SPACING_MS
    schedule = (
        ChaosSchedule()
        .fail_host(base, "db1.cern.ch")
        .fail_host(base, "db2.cern.ch")
        .restore_host(restore_at, "db1.cern.ch")
        .restore_host(restore_at, "db2.cern.ch")
    )
    driver = schedule.driver(fed.network, fed.clock)
    driver.tick()
    blackout = _run_phase(fed, service, seq, CHAOS_QUERIES, allow_partial=True)

    driver.finish()  # apply the scheduled restores before recovering
    fed.clock.advance_ms(BREAKER_COOLDOWN_MS)
    recovery = _run_phase(
        fed, service, seq, RECOVERY_QUERIES, allow_partial=False
    )

    # the per-operator profile of the most recent (healthy) query
    profile = service.profile()

    # the same telemetry, re-read through plain federated SQL
    sql_demo = {
        "alerts_fired": _sql_value(
            service,
            "SELECT COUNT(*) FROM monitor_alerts WHERE state = 'firing'",
        ),
        "alerts_resolved": _sql_value(
            service,
            "SELECT COUNT(*) FROM monitor_alerts WHERE state = 'resolved'",
        ),
        "history_buckets": _sql_value(
            service, "SELECT COUNT(*) FROM monitor_history"
        ),
        "queries_archived_raw": _sql_value(
            service,
            "SELECT SUM(total) FROM monitor_history "
            "WHERE metric = 'queries' AND res_ms = 0.0",
        ),
        "profile_rows": _sql_value(
            service, "SELECT COUNT(*) FROM monitor_profile"
        ),
    }

    # rollup conservation, checked straight on the archive
    conservation = {}
    for name in ("queries", "partial_answers", "query_ms"):
        series = service.archiver.series_for(name)
        if series is None:
            continue
        totals = {
            res: series.totals(res) for res in series.resolutions
        }
        raw = totals[RAW_RESOLUTION_MS]
        conservation[name] = {
            "samples": raw.samples,
            "total": raw.total,
            "conserved": all(
                t.samples == raw.samples and abs(t.total - raw.total) < 1e-9
                for t in totals.values()
            ),
            "resolutions": sorted(totals),
        }

    return {
        "sql": DEMO_SQL,
        "slos": [
            {"name": s.name, "kind": s.kind, "objective": s.objective}
            for s in DEMO_SLOS
        ],
        "phases": {
            "healthy": healthy,
            "blackout": blackout,
            "recovery": recovery,
        },
        "profile": profile,
        "sql_demo": sql_demo,
        "conservation": conservation,
        "alerts": [a.as_dict() for a in service.slo.alerts],
    }


def _print_human(report: dict) -> None:
    print(f"query: {report['sql']}")
    print("objectives: " + ", ".join(
        f"{s['name']} ({s['kind']}, {s['objective']:.0%})"
        for s in report["slos"]
    ))
    for name in ("healthy", "blackout", "recovery"):
        phase = report["phases"][name]
        health = phase["health"]
        firing = health["alerts_firing"]
        print(
            f"phase {name:9} outcomes={phase['outcomes']} "
            f"verdict={phase['verdict'].upper()}"
            + (f" alerts={[a['slo'] + '/' + a['severity'] for a in firing]}"
               if firing else "")
        )
    print("alert transitions:")
    for alert in report["alerts"]:
        print(
            f"  t+{alert['ts_ms']:>9.1f} ms  {alert['slo']:<13} "
            f"{alert['severity']:<7} {alert['state']:<9} "
            f"burn={alert['burn_rate']:.1f}x over {alert['window_ms']:g} ms"
        )
    profile = report["profile"]
    print(
        f"profile of last query ({profile['total_ms']:g} ms total, "
        f"self-times sum to {profile['self_total_ms']:g} ms):"
    )
    for op in profile["operators"]:
        print(
            f"  {op['stage']:<12} [{op['server']}] calls={op['calls']} "
            f"self={op['self_ms']:.3f} ms cum={op['cum_ms']:.3f} ms"
        )
    print("folded stacks (flame-graph input):")
    for line in profile["folded"]:
        print(f"  {line}")
    demo = report["sql_demo"]
    print(
        "federated SQL over the telemetry: "
        f"{demo['alerts_fired']} alerts fired / {demo['alerts_resolved']} "
        f"resolved, {demo['history_buckets']} archive buckets, "
        f"{demo['profile_rows']} profile rows"
    )
    for name, c in sorted(report["conservation"].items()):
        print(
            f"  rollup conservation [{name}]: samples={c['samples']:g} "
            f"total={c['total']:g} conserved={c['conserved']}"
        )


def main(argv: list[str] | None = None) -> int:
    return report_main(
        argv,
        prog="python -m repro.tools.healthreport",
        description="SLO/health report for the demo federation",
        build_report=build_report,
        print_human=_print_human,
    )


if __name__ == "__main__":
    raise SystemExit(main())
