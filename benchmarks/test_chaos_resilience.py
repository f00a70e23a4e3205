"""Chaos resilience bench — scripted host failures under a live workload.

Drives a resilient federation ("events" replicated on two database
hosts) through a :class:`~repro.resilience.ChaosSchedule` that kills
each replica host alone, then both together, then restores everything.
The client keeps querying with ``allow_partial`` on. Asserts the §4.8
resilience contract: every query either succeeds with the ground-truth
rows or comes back flagged partial — never silently wrong — and once
the circuit breakers open, a dead backend is skipped without paying the
``PARTITION_TIMEOUT_MS`` wire penalty (bounded steady-state p99).
Emits ``benchmarks/results/BENCH_chaos.json``.

Deliberately avoids the pytest-benchmark fixture so this file runs
under a plain pytest install (CI executes it next to the cache bench).
"""

import json
import math

import pytest

from repro.core import GridFederation
from repro.engine import Database
from repro.net import costs
from repro.resilience import ChaosSchedule, ResilienceConfig

from benchmarks.conftest import RESULTS_DIR, fmt_row, rows_digest, write_report

SQL = "SELECT COUNT(*), SUM(energy) FROM events"
SPACING_MS = 500.0
COOLDOWN_MS = 60_000.0  # probes deferred past the blackout window
PHASE_QUERIES = {
    "healthy": 4,
    "db1_dead": 4,
    "db2_dead": 4,
    "blackout": 14,
    "recovered": 4,
}


def _events_db(name, vendor="mysql", n=40):
    db = Database(name, vendor)
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, ENERGY DOUBLE)")
    for i in range(n):
        db.execute(f"INSERT INTO EVT VALUES ({i}, {i * 0.5})")
    return db


def _p99(latencies):
    """Nearest-rank p99 (matches the metrics registry's convention)."""
    if not latencies:
        return None
    ordered = sorted(latencies)
    rank = max(1, math.ceil(0.99 * len(ordered)))
    return ordered[rank - 1]


@pytest.fixture(scope="module")
def measured():
    fed = GridFederation()
    config = ResilienceConfig(cooldown_ms=COOLDOWN_MS)
    # replica_selection makes the planner prefer reachable replicas, so
    # a single dead host is routed around without paying any timeout
    server = fed.create_server(
        "jc1", "tier2a.cern.ch", resilience=config, replica_selection=True
    )
    fed.attach_database(
        server, _events_db("primary_mart"),
        db_host="db1.cern.ch", logical_names={"EVT": "events"},
    )
    fed.attach_database(
        server, _events_db("replica_mart", vendor="sqlite"),
        db_host="db2.cern.ch", logical_names={"EVT": "events"},
    )
    client = fed.client("laptop.caltech.edu")

    truth = fed.query(client, server, SQL).answer.rows
    base = fed.clock.now_ms

    # each replica host dies alone, then both die, then all restored
    schedule = (
        ChaosSchedule()
        .fail_host(base + 2_100, "db1.cern.ch")
        .restore_host(base + 4_100, "db1.cern.ch")
        .fail_host(base + 4_100, "db2.cern.ch")
        .fail_host(base + 6_400, "db1.cern.ch")
        .restore_host(base + 120_000, "db1.cern.ch")
        .restore_host(base + 120_000, "db2.cern.ch")
    )
    driver = schedule.driver(fed.network, fed.clock)
    assert set(schedule.hosts_killed()) == {"db1.cern.ch", "db2.cern.ch"}

    phase_starts = {
        "healthy": base,
        "db1_dead": base + 2_500,
        "db2_dead": base + 4_500,
        "blackout": base + 6_700,
        "recovered": base + 190_000,  # past restore + breaker cooldown
    }
    samples = []
    digests = {}
    for phase, count in PHASE_QUERIES.items():
        rows = []
        total_ms = 0.0
        received = client.bytes_received
        if fed.clock.now_ms < phase_starts[phase]:
            fed.clock.advance_ms(phase_starts[phase] - fed.clock.now_ms)
        for _ in range(count):
            driver.tick()
            t0 = fed.clock.now_ms
            outcome = fed.query(client, server, SQL, allow_partial=True)
            latency = fed.clock.now_ms - t0
            answer = outcome.answer
            rows.append(answer.rows)
            total_ms += latency
            if answer.partial:
                kind = "partial"
                assert answer.failures, "partial answer must carry provenance"
            else:
                kind = "ok" if answer.rows == truth else "WRONG"
            samples.append(
                {
                    "phase": phase,
                    "at_ms": round(t0 - base, 1),
                    "outcome": kind,
                    "latency_ms": round(latency, 3),
                }
            )
            fed.clock.advance_ms(SPACING_MS)
        digests[phase] = (rows_digest(rows), repr(total_ms), client.bytes_received - received)
    driver.finish()

    blackout = [s for s in samples if s["phase"] == "blackout"]
    steady = blackout[len(blackout) // 2 :]
    stats = server.service.stats()
    artifact = {
        "sql": SQL,
        "partition_timeout_ms": costs.PARTITION_TIMEOUT_MS,
        "samples": samples,
        "outcomes": {
            kind: sum(1 for s in samples if s["outcome"] == kind)
            for kind in ("ok", "partial", "WRONG")
        },
        "steady_state_p99_ms": _p99([s["latency_ms"] for s in steady]),
        "blackout_first_latency_ms": blackout[0]["latency_ms"],
        "resilience": stats["resilience"],
        "partial_answers": stats["partial_answers"],
        "net_partition_timeouts": fed.network.partition_timeouts,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_chaos.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")

    widths = [10, 10, 8, 12]
    lines = [
        fmt_row(["phase", "at ms", "outcome", "latency ms"], widths),
        *[
            fmt_row(
                [s["phase"], s["at_ms"], s["outcome"], s["latency_ms"]], widths
            )
            for s in samples
        ],
        "",
        f"steady-state p99: {artifact['steady_state_p99_ms']} ms "
        f"(partition timeout {costs.PARTITION_TIMEOUT_MS} ms)",
        f"artifact: {path.name}",
        "",
        "rows: sha256[:16] of the phase's answer rows in order; exact total sim ms;",
        "response bytes on the wire",
        fmt_row(["phase", "rows", "total ms", "wire bytes"], [10, 16, 20, 10]),
        *[fmt_row([phase, *d], [10, 16, 20, 10]) for phase, d in digests.items()],
    ]
    write_report("chaos_resilience", "Chaos Resilience — Scripted Host Failures", lines)
    return {"samples": samples, "steady": steady, "artifact": artifact, "truth": truth}


class TestChaosResilience:
    def test_never_silently_wrong(self, measured):
        """Every query succeeds with the truth or is flagged partial."""
        assert all(s["outcome"] in ("ok", "partial") for s in measured["samples"])

    def test_single_host_failures_fail_over(self, measured):
        """With one replica left, queries still answer in full."""
        for phase in ("db1_dead", "db2_dead"):
            phase_samples = [s for s in measured["samples"] if s["phase"] == phase]
            assert phase_samples, phase
            assert all(s["outcome"] == "ok" for s in phase_samples), phase

    def test_blackout_produces_flagged_partials(self, measured):
        blackout = [s for s in measured["samples"] if s["phase"] == "blackout"]
        assert all(s["outcome"] == "partial" for s in blackout)

    def test_breakers_opened_under_blackout(self, measured):
        breakers = measured["artifact"]["resilience"]["breakers"]
        assert any(b["opens"] >= 1 for b in breakers.values())
        assert any(b["fast_fails"] >= 1 for b in breakers.values())

    def test_steady_state_p99_beats_partition_timeout(self, measured):
        """Open breakers skip dead backends without paying the timeout."""
        p99 = measured["artifact"]["steady_state_p99_ms"]
        assert p99 is not None
        assert p99 < costs.PARTITION_TIMEOUT_MS

    def test_recovery_returns_ground_truth(self, measured):
        recovered = [s for s in measured["samples"] if s["phase"] == "recovered"]
        assert recovered
        assert all(s["outcome"] == "ok" for s in recovered)

    def test_artifact_emitted(self, measured):
        path = RESULTS_DIR / "BENCH_chaos.json"
        assert path.exists()
        data = json.loads(path.read_text())
        assert data["outcomes"]["WRONG"] == 0
        assert data["net_partition_timeouts"] >= 1
