"""Observability overhead — Table 1 query mix, observe on vs off.

The obs stack (tracer + profiler + archiver + SLO engine) is opt-in and
must stay cheap enough to leave on: this bench runs the three Table 1
query classes on two identically-seeded paper testbeds, one with
``observe=False`` and one with ``observe=True``, and measures the real
(host) CPU cost of each full mix. Asserted bounds:

* answers are **bit-for-bit identical** in both modes;
* simulated response times match within ``MAX_SIM_OVERHEAD`` — spans
  never advance the virtual clock, but remote spans piggyback on
  forwarded responses and the network model honestly charges their
  bytes, so distributed queries pay a sub-percent wire tax;
* the real-time overhead of the observed mix stays under
  ``MAX_OVERHEAD_RATIO``.

Emits two artifacts. ``benchmarks/results/BENCH_obs.json`` (and the
``obs_overhead.txt`` report) hold the deterministic part: sim ms,
``rows_identical``, the observed server's counts and the bound; they
are committed, and CI checks that a rerun reproduces them byte for
byte. ``benchmarks/results/BENCH_obs_realtime.json`` holds the host
timings (best-of-N ms and the ratio); it differs on every run, so it is
not committed (CI uploads it). Deliberately avoids the
pytest-benchmark fixture so this file runs under a plain pytest
install (CI executes it directly).
"""

import json
import time

import pytest

from repro.hep.testbed import build_paper_testbed

from benchmarks.conftest import RESULTS_DIR, fmt_row, rows_digest, write_report

#: generous real-time bound: the observed mix may not cost more than
#: this multiple of the unobserved mix (typical measured ratio ~1.1-1.5)
MAX_OVERHEAD_RATIO = 5.0
#: simulated-time tolerance: piggybacked span bytes on the wire
MAX_SIM_OVERHEAD = 0.01
REPS = 5


def _query_mix(tb) -> dict[str, str]:
    return {
        "local": tb.QUERY_LOCAL,
        "dist_1srv": tb.QUERY_DISTRIBUTED_1SRV,
        "dist_2srv": tb.QUERY_DISTRIBUTED_2SRV,
    }


def _run_mix(tb) -> tuple[float, dict]:
    """One pass over the mix: (real seconds, per-query outcomes)."""
    service = tb.server1.service
    network = tb.federation.network
    outcomes = {}
    t0 = time.perf_counter()
    for name, sql in _query_mix(tb).items():
        clock0 = tb.federation.clock.now_ms
        moved = network.bytes_moved
        answer = service.execute(sql)
        outcomes[name] = {
            "rows": answer.rows,
            "columns": answer.columns,
            "sim_ms": tb.federation.clock.now_ms - clock0,
            "bytes_moved": network.bytes_moved - moved,
        }
    return time.perf_counter() - t0, outcomes


@pytest.fixture(scope="module")
def measured():
    """REPS timed passes per mode on identically-seeded testbeds."""
    modes = {}
    for observe in (False, True):
        tb = build_paper_testbed(observe=observe)
        times = []
        outcomes = None
        for _ in range(REPS):
            elapsed, outcomes = _run_mix(tb)
            times.append(elapsed)
        modes[observe] = {
            "testbed": tb,
            # min is the noise-robust estimate of the true cost
            "best_s": min(times),
            "times_s": times,
            "outcomes": outcomes,
        }

    ratio = modes[True]["best_s"] / modes[False]["best_s"]
    realtime = {
        "reps": REPS,
        "max_overhead_ratio": MAX_OVERHEAD_RATIO,
        "observe_off_best_ms": round(modes[False]["best_s"] * 1e3, 3),
        "observe_on_best_ms": round(modes[True]["best_s"] * 1e3, 3),
        "overhead_ratio": round(ratio, 3),
    }
    artifact = {
        "reps": REPS,
        "max_overhead_ratio": MAX_OVERHEAD_RATIO,
        "queries": {
            name: {
                "sim_ms_off": round(modes[False]["outcomes"][name]["sim_ms"], 3),
                "sim_ms_on": round(modes[True]["outcomes"][name]["sim_ms"], 3),
                "rows_identical": (
                    modes[False]["outcomes"][name]["rows"]
                    == modes[True]["outcomes"][name]["rows"]
                ),
            }
            for name in modes[False]["outcomes"]
        },
        "observed_server": {
            "profiles_recorded": modes[True]["testbed"]
            .server1.service.profiler.profiled,
            "archive_snapshots": modes[True]["testbed"]
            .server1.service.archiver.snapshots,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_obs.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    realtime_path = RESULTS_DIR / "BENCH_obs_realtime.json"
    realtime_path.write_text(json.dumps(realtime, indent=2, sort_keys=True) + "\n")
    print(
        f"\nreal time (best of {REPS} mixes): "
        f"off {realtime['observe_off_best_ms']} ms, "
        f"on {realtime['observe_on_best_ms']} ms "
        f"-> {realtime['overhead_ratio']}x (bound {MAX_OVERHEAD_RATIO}x)"
    )

    widths = [10, 11, 11, 10]
    lines = [
        fmt_row(["query", "sim ms off", "sim ms on", "identical"], widths),
        *[
            fmt_row(
                [
                    name,
                    q["sim_ms_off"],
                    q["sim_ms_on"],
                    str(q["rows_identical"]),
                ],
                widths,
            )
            for name, q in artifact["queries"].items()
        ],
        "",
        f"real time (best of {REPS} mixes, bound {MAX_OVERHEAD_RATIO}x): "
        f"{realtime_path.name}, not committed",
        f"artifact: {path.name}",
        "",
        f"rows: sha256[:16] of the query's answer rows in the last of {REPS} mixes;",
        "its exact sim ms; bytes moved on the network (the queries run at the",
        "service, no client wire)",
        fmt_row(["query", "mode", "rows", "sim ms", "bytes moved"], [10, 4, 16, 20, 11]),
        *[
            fmt_row(
                [name, mode, rows_digest(o["rows"]), repr(o["sim_ms"]), o["bytes_moved"]],
                [10, 4, 16, 20, 11],
            )
            for name in artifact["queries"]
            for mode, o in (
                ("off", modes[False]["outcomes"][name]),
                ("on", modes[True]["outcomes"][name]),
            )
        ],
    ]
    write_report(
        "obs_overhead", "Observability Overhead — Observe On vs Off", lines
    )
    return modes, artifact, realtime


class TestObsOverhead:
    def test_rows_bit_for_bit_identical(self, measured):
        modes, _, _ = measured
        for name in modes[False]["outcomes"]:
            off = modes[False]["outcomes"][name]
            on = modes[True]["outcomes"][name]
            assert off["rows"] == on["rows"], name
            assert off["columns"] == on["columns"], name

    def test_observation_nearly_free_in_simulated_time(self, measured):
        """Local queries: exactly free. Distributed: only the wire tax."""
        modes, _, _ = measured
        for name in modes[False]["outcomes"]:
            off = modes[False]["outcomes"][name]["sim_ms"]
            on = modes[True]["outcomes"][name]["sim_ms"]
            if name == "local":
                assert on == pytest.approx(off, abs=1e-9), name
            else:
                assert on == pytest.approx(off, rel=MAX_SIM_OVERHEAD), name

    def test_real_overhead_under_bound(self, measured):
        _, _, realtime = measured
        assert realtime["overhead_ratio"] < MAX_OVERHEAD_RATIO, realtime

    def test_unobserved_service_allocates_nothing(self, measured):
        modes, _, _ = measured
        service = modes[False]["testbed"].server1.service
        assert service.tracer is None
        assert service.profiler is None
        assert service.archiver is None
        assert service.slo is None
        assert service.monitor is None

    def test_observed_stack_actually_worked(self, measured):
        _, artifact, _ = measured
        observed = artifact["observed_server"]
        assert observed["profiles_recorded"] >= 3 * REPS
        assert observed["archive_snapshots"] >= 1

    def test_artifact_emitted(self, measured):
        artifact = json.loads((RESULTS_DIR / "BENCH_obs.json").read_text())
        realtime = json.loads((RESULTS_DIR / "BENCH_obs_realtime.json").read_text())
        assert realtime["overhead_ratio"] < realtime["max_overhead_ratio"]
        for entry in artifact["queries"].values():
            assert entry["rows_identical"]
