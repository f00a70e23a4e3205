"""Chaos/resilience report CLI: ``python -m repro.tools.chaosreport``.

Builds a resilient federation ("events" replicated on two database
hosts behind one JClarens server), then drives a scripted
:class:`~repro.resilience.ChaosSchedule` through the virtual clock:
both replica hosts die mid-workload, stay dead long enough for the
circuit breakers to open, and come back later. The workload keeps
querying throughout with ``allow_partial`` on and reports, per phase,
what the client actually saw::

    python -m repro.tools.chaosreport              # human-readable report
    python -m repro.tools.chaosreport --json       # machine-readable report
    python -m repro.tools.chaosreport --json --out BENCH_chaosreport.json
"""

from __future__ import annotations

from repro.net import costs
from repro.resilience import ChaosSchedule, ResilienceConfig
from repro.tools.demo import replicated_federation, report_main

DEMO_SQL = "SELECT COUNT(*), SUM(energy) FROM events"

#: workload cadence and chaos timeline (all relative, simulated ms).
#: The breaker cooldown is stretched past the blackout so the
#: steady-state window holds pure fast-fails — the (intentionally
#: expensive) half-open probe happens once, during recovery.
QUERY_SPACING_MS = 500.0
BLACKOUT_AT_MS = 1_000.0
RESTORE_AT_MS = 30_000.0
RECOVERY_AT_MS = 55_000.0
BREAKER_COOLDOWN_MS = 30_000.0
CHAOS_QUERIES = 24


def build_resilient_federation():
    """One resilient server, 'events' replicated on two database hosts."""
    config = ResilienceConfig(cooldown_ms=BREAKER_COOLDOWN_MS)
    return replicated_federation(resilience=config, observe=True)


def build_report() -> dict:
    """Healthy baseline -> total blackout -> restore -> recovery."""
    fed, server = build_resilient_federation()
    service = server.service

    baseline = service.execute(DEMO_SQL)
    truth = baseline.rows
    base = fed.clock.now_ms

    schedule = (
        ChaosSchedule()
        .fail_host(base + BLACKOUT_AT_MS, "db1.cern.ch")
        .fail_host(base + BLACKOUT_AT_MS, "db2.cern.ch")
        .restore_host(base + RESTORE_AT_MS, "db1.cern.ch")
        .restore_host(base + RESTORE_AT_MS, "db2.cern.ch")
    )
    driver = schedule.driver(fed.network, fed.clock)

    samples = []  # (rel_ms, outcome, latency_ms)
    for _ in range(CHAOS_QUERIES):
        driver.tick()
        t0 = fed.clock.now_ms
        answer = service.execute(DEMO_SQL, allow_partial=True)
        latency = fed.clock.now_ms - t0
        if answer.partial:
            outcome = "partial"
        else:
            outcome = "ok" if answer.rows == truth else "WRONG"
        samples.append((round(t0 - base, 1), outcome, round(latency, 3)))
        fed.clock.advance_ms(QUERY_SPACING_MS)

    # steady state: the tail of the blackout, after the breakers opened
    blackout = [s for s in samples if s[1] == "partial"]
    steady = blackout[len(blackout) // 2 :]

    # recovery: past the restore + breaker cooldown, probes should heal
    if fed.clock.now_ms < base + RECOVERY_AT_MS:
        fed.clock.advance_ms(base + RECOVERY_AT_MS - fed.clock.now_ms)
    driver.finish()
    t0 = fed.clock.now_ms
    recovered = service.execute(DEMO_SQL)
    recovery_ms = fed.clock.now_ms - t0

    stats = service.stats()
    return {
        "sql": DEMO_SQL,
        "truth_rows": [list(r) for r in truth],
        "baseline_outcome": "ok",
        "samples": [
            {"at_ms": at, "outcome": outcome, "latency_ms": ms}
            for at, outcome, ms in samples
        ],
        "outcomes": {
            "ok": sum(1 for s in samples if s[1] == "ok"),
            "partial": sum(1 for s in samples if s[1] == "partial"),
            "wrong": sum(1 for s in samples if s[1] == "WRONG"),
        },
        "partition_timeout_ms": costs.PARTITION_TIMEOUT_MS,
        "blackout_first_latency_ms": blackout[0][2] if blackout else None,
        "steady_state_max_latency_ms": max(s[2] for s in steady) if steady else None,
        "recovery_latency_ms": round(recovery_ms, 3),
        "recovery_rows_identical": recovered.rows == truth,
        "resilience": stats["resilience"],
        "partial_answers": stats.get("partial_answers", 0),
        "net_partition_timeouts": fed.network.partition_timeouts,
    }


def _print_human(report: dict) -> None:
    print(f"query: {report['sql']}")
    print(f"chaos workload: {len(report['samples'])} queries, outcomes "
          f"{report['outcomes']}")
    for sample in report["samples"]:
        print(
            f"  t+{sample['at_ms']:>8.1f} ms  {sample['outcome']:7}  "
            f"{sample['latency_ms']:g} ms"
        )
    print(
        f"blackout: first hit {report['blackout_first_latency_ms']} ms, "
        f"steady state max {report['steady_state_max_latency_ms']} ms "
        f"(partition timeout {report['partition_timeout_ms']} ms)"
    )
    print(
        f"recovery: {report['recovery_latency_ms']} ms, rows identical: "
        f"{report['recovery_rows_identical']}"
    )
    for key, b in sorted(report["resilience"]["breakers"].items()):
        print(
            f"  breaker {key}: state={b['state']} opens={b['opens']} "
            f"fast_fails={b['fast_fails']}"
        )
    print(f"network partition timeouts paid: {report['net_partition_timeouts']}")


def main(argv: list[str] | None = None) -> int:
    return report_main(
        argv,
        prog="python -m repro.tools.chaosreport",
        description="chaos/resilience report for the demo federation",
        build_report=build_report,
        print_human=_print_human,
    )


if __name__ == "__main__":
    raise SystemExit(main())
