"""Federation benchmark: one closed-loop client, three workloads, two clocks.

Run from the repository root:

    python3 perfbench/run.py --workload table1_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures for ``--seconds`` with no wrappers installed and
prints the end-to-end metrics. ``--trace 1`` runs a fixed, seed-determined
schedule three times (traced, untraced, and traced again in a child
process) and prints the per-layer metrics, the tracing overhead and a
count of metrics that differed between the runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md in
this directory for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_KERNEL_MS, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


# -- statistics ----------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[k]


def beyond(n: int, pct: float) -> int:
    """Samples above the nearest-rank ``pct`` percentile of ``n``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


# -- the closed loop -----------------------------------------------------------


def run_loop(workload, seconds: float | None = None, n_ops: int | None = None,
             tracer=None):
    """One client, one op at a time, until the time or the op budget is spent.

    Returns the op records (``real_ms`` raw, ``ms`` at reference host
    speed) and the speed probe sampled between ops.
    """
    records = []
    probe = SpeedProbe()
    # start every loop from the same collector state; collections the
    # program triggers inside the loop are timed as the program pays them
    gc.collect()
    probe.sample()
    _loop(workload, records, seconds, n_ops, tracer, probe)
    probe.sample()
    for rec in records:
        rec.ms = probe.normalize(rec.real_ms, rec.start_ns)
    return records, probe


def _loop(workload, records, seconds, n_ops, tracer, probe) -> None:
    from workloads import OpRecord

    deadline = time.perf_counter() + seconds if seconds is not None else None
    i = 0
    while (i < n_ops) if n_ops is not None else (time.perf_counter() < deadline):
        probe.maybe_sample()
        op = workload.next_op(i)
        error = None
        result = None
        if tracer is None:
            t0 = time.perf_counter_ns()
            try:
                result = workload.execute(op)
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            real_ns = time.perf_counter_ns() - t0
        else:
            outer0 = time.perf_counter_ns()
            tracer.phase = "loop"
            root = tracer.open("op")
            try:
                result = workload.execute(op)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            tracer.close(root)
            tracer.phase = "bench"
            outer_ns = time.perf_counter_ns() - outer0
            t0, real_ns = root.real_start_ns, root.real_ns
        if error is None:
            rec = workload.record(op, result)
        else:
            rec = OpRecord(op.index, op.kind, op.key, op.epoch, error=error)
        if tracer is not None:
            rec.outer_ns = outer_ns
        rec.start_ns = t0
        rec.real_ms = real_ns / 1e6
        records.append(rec)
        i += 1


def setup_world(workload, reps: int) -> list[tuple[float, float]]:
    """Build and warm the world ``reps`` times; the last one stays.

    Returns (raw, reference-speed) seconds per set-up; the host's speed
    is probed just before and just after each one.
    """
    times = []
    for _ in range(reps):
        workload.discard()
        gc.collect()
        probe = SpeedProbe()
        probe.sample()
        t0 = time.perf_counter()
        workload.setup()
        raw = time.perf_counter() - t0
        probe.sample()
        kernel_ms = statistics.mean(probe.kernel_ms)
        times.append((raw, raw * REFERENCE_KERNEL_MS / kernel_ms))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- provenance ----------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(workload, args) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 process",
        **workload.provenance(),
    }


# -- end-to-end run (--trace 0) --------------------------------------------------


def summarize(records: list, tail_pct: float) -> dict:
    """Every end-to-end figure the records support, by name."""
    queries = [r for r in records if r.kind == "query" and r.error is None]
    writes = [r for r in records if r.kind == "write" and r.error is None]
    done = [r for r in records if r.error is None]
    out: dict[str, tuple] = {}
    if queries:
        real = [r.ms for r in queries]
        sim = [r.sim_ms for r in queries]
        n = len(real)
        out["query_ms_p50"] = (statistics.median(real), "ms", f"n={n} queries")
        out["query_ms_p99"] = (percentile(real, 99), "ms", f"{beyond(n, 99)} samples beyond")
        out["queries_per_s"] = (n / (sum(real) / 1000.0), "1/s", "per second of query time")
        out["sim_query_ms_p50"] = (statistics.median(sim), "ms(sim)", "QueryOutcome.response_ms")
        out["sim_query_ms_p99"] = (percentile(sim, 99), "ms(sim)", "")
    if writes:
        real = [r.ms for r in writes]
        out["write_ms_p50"] = (statistics.median(real), "ms", f"n={len(real)} write ops")
        out["sim_write_s_p50"] = (
            statistics.median(r.sim_ms for r in writes) / 1000.0, "s(sim)",
            "ETLReport extraction + loading",
        )
        out["rows_loaded_per_s"] = (
            sum(r.rows for r in writes) / (sum(real) / 1000.0), "rows/s",
            "rows landed per second of write time",
        )
    if done:
        real = [r.ms for r in done]
        n = len(real)
        out["op_ms_p50"] = (statistics.median(real), "ms", f"n={n} ops, all kinds")
        out["op_ms_tail"] = (
            percentile(real, tail_pct), "ms", f"p{tail_pct:g}, {beyond(n, tail_pct)} samples beyond",
        )
        out["ops_per_s"] = (n / (sum(real) / 1000.0), "1/s", "per second of op time")
        raw = [r.real_ms for r in done]
        out["op_ms_p50_raw"] = (statistics.median(raw), "ms", "as measured, not normalized")
        out["op_ms_tail_raw"] = (percentile(raw, tail_pct), "ms", "as measured, not normalized")
    return out


E2E_METRICS = (
    "setup_s", "peak_rss_mb", "query_ms_p50", "query_ms_p99", "queries_per_s",
    "sim_query_ms_p50", "sim_query_ms_p99", "write_ms_p50", "sim_write_s_p50",
    "rows_loaded_per_s", "error_rate",
)
JSON_METRICS = ("setup_s", "peak_rss_mb", "op_ms_p50", "op_ms_tail", "ops_per_s")
RAW_METRICS = ("setup_s_raw", "op_ms_p50_raw", "op_ms_tail_raw")


def print_block(title: str, figures: dict, names) -> None:
    print(title)
    for name in names:
        if name in figures:
            value, unit, note = figures[name]
            print(f"  {name:<28} {value:>14.6g} {unit:<8} {note}")
        else:
            print(f"  {name:<28} {'n/a':>14} {'':<8} not exercised by this workload")


def run_e2e(workload, args) -> int:
    setup_times = setup_world(workload, workload.setup_reps)
    workload.prepare_checks()
    records, probe = run_loop(workload, seconds=args.seconds)
    rss = peak_rss_mb()
    failures = workload.verify(records)
    failed = sum(1 for r in records if r.error is not None or r.index in failures)
    attempted = len(records)

    figures = summarize(records, workload.tail_pct)
    figures["setup_s"] = (
        statistics.median(t for _raw, t in setup_times), "s",
        f"median of {len(setup_times)} set-ups",
    )
    figures["setup_s_raw"] = (
        statistics.median(raw for raw, _t in setup_times), "s", "as measured, not normalized"
    )
    figures["peak_rss_mb"] = (rss, "MB", "ru_maxrss at the end of the timed loop")
    figures["error_rate"] = (failed / attempted, "ratio", f"{failed} of {attempted} ops")

    print(f"== {workload.name}: {workload.why}")
    print("provenance " + json.dumps(provenance(workload, args), sort_keys=True))
    print("host speed " + json.dumps(probe.summary(), sort_keys=True))
    print("issued mix " + json.dumps(workload.issued(records)))
    print_block(
        "end-to-end metrics (real times at reference host speed unless marked sim)",
        figures, E2E_METRICS,
    )
    print_block("JSON metrics (every op of the loop)", figures, JSON_METRICS)
    print_block("raw real times", figures, RAW_METRICS)
    report_failures(records, failures)
    metrics = {
        name: {"value": figures[name][0], "unit": figures[name][1]}
        for name in JSON_METRICS
        if name in figures
    }
    print(json.dumps({
        "correct": failed == 0 and len(metrics) == len(JSON_METRICS),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def report_failures(records, failures: dict) -> None:
    shown = 0
    for rec in records:
        message = rec.error or failures.get(rec.index)
        if message is not None and shown < 10:
            print(f"FAILED op {rec.index} ({rec.kind} {rec.key}): {message}", file=sys.stderr)
            shown += 1


# -- traced run (--trace 1) ------------------------------------------------------


def traced_pass(workload):
    """Set up and run the fixed schedule with every layer wrapped."""
    from tracing import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    try:
        tracer.phase = "setup"
        setup_world(workload, 1)
        tracer.clock = workload.clock
        tracer.phase = "bench"
        before = workload.counters()
        records, _probe = run_loop(workload, n_ops=workload.traced_ops, tracer=tracer)
        after = workload.counters()
    finally:
        tracer.uninstall()
    return tracer, records, delta(before, after)


def delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def layer_figures(tracer, records, counters: dict) -> dict:
    """Per-layer metrics, per op of the traced loop.

    Real self times are scaled to reference host speed with their op's
    factor. Also returns, per op, the raw self times of its spans summed,
    for the accounting check.
    """
    n = len(records)
    spans = tracer.spans
    calls: dict[str, int] = {}
    op_self_ns: list[int] = []
    self_ns: dict[str, float] = {}
    sim: dict[str, float] = {}
    attrs: dict[str, dict] = {}
    ops = iter(records)
    speed = 1.0
    for span in spans:
        if span.phase != "loop":
            continue
        if span.parent < 0:  # an op's root: its spans follow it
            rec = next(ops)
            speed = rec.ms / rec.real_ms if rec.real_ms else 1.0
            op_self_ns.append(0)
        layer = span.layer
        calls[layer] = calls.get(layer, 0) + 1
        op_self_ns[-1] += span.self_ns
        self_ns[layer] = self_ns.get(layer, 0.0) + span.self_ns * speed
        sim[layer] = sim.get(layer, 0.0) + span.charged_sim_ms
        if span.attrs:
            if layer == "warehouse.etl" and _has_ancestor(spans, span, ("warehouse.etl",)):
                continue  # run_incremental's inner run: count its report once
            if layer == "engine.execute" and not _backend_execution(spans, span):
                continue
            bucket = attrs.setdefault(layer, {})
            for key, value in span.attrs.items():
                bucket[key] = bucket.get(key, 0) + value
    setup_rls = sum(1 for s in spans if s.phase == "setup" and s.layer == "rls.lookup")

    def per_op(value):
        return value / n

    def ms(layer):
        return per_op(self_ns.get(layer, 0) / 1e6)

    def hit_ratio(level):
        hits = counters.get(f"cache.{level}.hits", 0)
        total = hits + counters.get(f"cache.{level}.misses", 0)
        return hits / total if total else 0.0

    eng = attrs.get("engine.execute", {})
    etl = attrs.get("warehouse.etl", {})
    out = {
        "sql.parse.calls": (per_op(calls.get("sql.parse", 0)), "calls/op"),
        "sql.parse.ms": (ms("sql.parse"), "ms/op"),
        "unity.decompose.ms": (ms("unity.decompose"), "ms/op"),
        "unity.decompose.sim_ms": (per_op(sim.get("unity.decompose", 0.0)), "sim_ms/op"),
        "unity.merge.ms": (ms("unity.merge"), "ms/op"),
        "unity.merge.rows": (per_op(attrs.get("unity.merge", {}).get("rows", 0)), "rows/op"),
        "unity.merge.sim_ms": (per_op(sim.get("unity.merge", 0.0)), "sim_ms/op"),
        "core.service.ms": (ms("core.service"), "ms/op"),
        "core.service.sim_ms": (per_op(sim.get("core.service", 0.0)), "sim_ms/op"),
        "core.route.calls.pool": (per_op(counters.get("route.pool", 0)), "calls/op"),
        "core.route.calls.jdbc": (per_op(counters.get("route.jdbc", 0)), "calls/op"),
        "core.route.calls.remote": (per_op(counters.get("route.remote", 0)), "calls/op"),
        "core.route.ms": (ms("core.route"), "ms/op"),
        "core.route.sim_ms": (per_op(sim.get("core.route", 0.0)), "sim_ms/op"),
        "driver.connect.calls": (per_op(calls.get("driver.connect", 0)), "calls/op"),
        "driver.connect.sim_ms": (per_op(sim.get("driver.connect", 0.0)), "sim_ms/op"),
        "dialects.render.ms": (ms("dialects.render"), "ms/op"),
        "engine.execute.calls": (per_op(calls.get("engine.execute", 0)), "calls/op"),
        "engine.execute.ms": (ms("engine.execute"), "ms/op"),
        "engine.rows_examined_per_row": (
            eng.get("examined", 0) / eng["returned"] if eng.get("returned") else 0.0, "ratio",
        ),
        "engine.bytes_estimate.calls": (
            per_op(tracer.counts["loop"].get("engine.bytes_estimate", 0)), "calls/op",
        ),
        "engine.insert.calls": (
            per_op(tracer.counts["loop"].get("engine.insert", 0)), "calls/op",
        ),
        "clarens.codec.ms": (ms("clarens.codec"), "ms/op"),
        "clarens.codec.bytes": (per_op(attrs.get("clarens.codec", {}).get("bytes", 0)), "bytes/op"),
        "net.transfer.calls": (per_op(calls.get("net.transfer", 0)), "calls/op"),
        "net.transfer.bytes": (per_op(attrs.get("net.transfer", {}).get("bytes", 0)), "bytes/op"),
        "net.transfer.sim_ms": (per_op(sim.get("net.transfer", 0.0)), "sim_ms/op"),
        "rls.lookup.calls": (per_op(calls.get("rls.lookup", 0)), "calls/op"),
        "rls.lookup.ms": (ms("rls.lookup"), "ms/op"),
        "rls.lookup.setup_calls": (setup_rls, "calls"),
        "cache.plan.hit_ratio": (hit_ratio("plan"), "ratio"),
        "cache.sub.hit_ratio": (hit_ratio("sub"), "ratio"),
        "cache.remote.hit_ratio": (hit_ratio("remote"), "ratio"),
        "cache.evictions": (per_op(counters.get("cache.evictions", 0)), "count/op"),
        "cache.invalidations": (per_op(counters.get("cache.invalidations", 0)), "count/op"),
        "warehouse.etl.ms": (ms("warehouse.etl"), "ms/op"),
        "warehouse.etl.extract_sim_ms": (per_op(etl.get("extract_sim_ms", 0.0)), "sim_ms/op"),
        "warehouse.etl.load_sim_ms": (per_op(etl.get("load_sim_ms", 0.0)), "sim_ms/op"),
        "warehouse.staging.ms": (ms("warehouse.staging"), "ms/op"),
        "marts.materialize.ms": (ms("marts.materialize"), "ms/op"),
        "unattributed.ms": (ms("op"), "ms/op"),
        "trace.e2e_ms": (per_op(sum(r.ms for r in records)), "ms/op"),
    }
    sims = [r.sim_ms for r in records if r.error is None]
    out["sim.op_ms_p50"] = (statistics.median(sims) if sims else 0.0, "sim_ms")
    out["sim.op_ms_p99"] = (percentile(sims, 99) if sims else 0.0, "sim_ms")
    return out, op_self_ns


#: share of the traced loop's time the spans may leave uncovered: the
#: root span's own open and close, which lie inside the outer clock pair
ACCOUNTING_SLACK = 0.01


def accounting(records, op_self_ns: list[int]) -> tuple[bool, str]:
    """Check the spans' self times against a clock read outside them.

    Per op, the self times of its spans (the layers' plus the root's
    ``unattributed``) must not exceed the op's time taken outside its root
    span, and over the loop they must cover all of it but the slack. A
    span counted twice, lost, or charged to the wrong op breaks this.
    """
    if len(op_self_ns) != len(records):
        return False, f"{len(op_self_ns)} root spans for {len(records)} ops"
    outer = sum(r.outer_ns for r in records)
    covered = sum(op_self_ns)
    over = sum(1 for r, s in zip(records, op_self_ns) if s > r.outer_ns)
    gap = outer - covered
    ok = over == 0 and 0 <= gap <= ACCOUNTING_SLACK * outer
    return ok, (
        f"span self times {covered} ns, outer clock {outer} ns, uncovered {gap} ns "
        f"({gap / outer:.4%}, slack {ACCOUNTING_SLACK:.0%}); ops over their outer time: {over}"
    )


def deterministic(figures: dict) -> dict:
    """The per-layer metrics that must repeat exactly for the same seed."""
    return {
        name: value
        for name, (value, unit) in figures.items()
        if not (unit.startswith("ms") or name.startswith("trace."))
    }


def _has_ancestor(spans, span, layers) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].layer in layers:
            return True
        parent = spans[parent].parent
    return False


def _backend_execution(spans, span) -> bool:
    """An engine call serving a routed sub-query (not the merge's scratch)."""
    parent = span.parent
    if parent >= 0 and spans[parent].layer == "engine.execute":
        return False
    while parent >= 0:
        layer = spans[parent].layer
        if layer == "core.route":
            return True
        if layer == "unity.merge":
            return False
        parent = spans[parent].parent
    return False


def schedule_digest(records, sim: bool = True) -> str:
    """Fingerprint of every op's answer (and simulated time)."""
    from workloads import digest

    return digest([
        (r.kind, r.key, r.rows, r.digest, r.error) + ((r.sim_ms,) if sim else ())
        for r in records
    ])


def counts_only(workload) -> dict:
    tracer, records, counters = traced_pass(workload)
    figures, _op_self_ns = layer_figures(tracer, records, counters)
    return {
        "layers": deterministic(figures),
        "counters": counters,
        "schedule": schedule_digest(records),
    }


def run_traced(workload, args) -> int:
    # 1. traced, fixed schedule, first world of a fresh process. Worlds
    # built earlier in a process shift the absolute simulated clock (the
    # Clarens session counter is process-wide, so later set-ups send longer
    # session ids), which moves simulated times in their last bits.
    tracer, records, counters = traced_pass(workload)
    workload.prepare_checks()
    failures = workload.verify(records)
    failed = sum(1 for r in records if r.error is not None or r.index in failures)
    figures, op_self_ns = layer_figures(tracer, records, counters)
    closure_ok, closure_line = accounting(records, op_self_ns)
    workload.discard()

    # 2. untraced, same schedule: the overhead baseline (set up as in --trace 0)
    setup_world(workload, workload.setup_reps)
    before = workload.counters()
    plain, _probe = run_loop(workload, n_ops=workload.traced_ops)
    plain_counters = delta(before, workload.counters())
    figures["trace.overhead_ratio"] = (
        statistics.median(r.ms for r in records) / statistics.median(r.ms for r in plain),
        "ratio",
    )

    # 3. the same seed again, traced, as the first world of another process
    mine = {
        "layers": deterministic(figures),
        "counters": counters,
        "schedule": schedule_digest(records),
    }
    differences = []
    counts = {k: v for k, v in counters.items() if isinstance(v, int)}
    plain_counts = {k: v for k, v in plain_counters.items() if isinstance(v, int)}
    if plain_counts != counts or schedule_digest(plain, sim=False) != schedule_digest(records, sim=False):
        differences.append("untraced vs traced: program counters or answers differ")
    try:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(args.seed), "--counts-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        child = None
    if child is None or child.returncode != 0:
        detail = child.stderr.strip()[-300:] if child is not None else "timed out"
        differences.append(f"second traced run failed: {detail}")
    else:
        other = json.loads(child.stdout.strip().splitlines()[-1])
        for section in ("layers", "counters"):
            for name in sorted(set(mine[section]) | set(other[section])):
                if mine[section].get(name) != other[section].get(name):
                    differences.append(
                        f"{section} {name}: {mine[section].get(name)!r} vs {other[section].get(name)!r}"
                    )
        if mine["schedule"] != other["schedule"]:
            differences.append("answers or simulated times differ between runs")
    figures["trace.nondeterministic"] = (len(differences), "count")
    for line in differences:
        print(f"NONDETERMINISM {line}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write_jsonl(spans_path, provenance(workload, args))

    print(f"== {workload.name} (traced, {len(records)} ops): {workload.why}")
    print("provenance " + json.dumps(provenance(workload, args), sort_keys=True))
    print("issued mix " + json.dumps(workload.issued(records)))
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    print("per-layer metrics (per op of the traced loop; *.ms are real self time "
          "at reference host speed)")
    for name, (value, unit) in figures.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    report_failures(records, failures)
    print(f"accounting: {closure_line}")
    if not closure_ok:
        print("FAILED span self times do not account for the traced loop's time", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and closure_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
    }))
    return 0


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT,
            )
            status = status or child.returncode
        return status
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload](args.seed)
    if args.counts_only:
        print(json.dumps(counts_only(workload)))
        return 0
    if args.trace:
        return run_traced(workload, args)
    return run_e2e(workload, args)


if __name__ == "__main__":
    sys.exit(main())
