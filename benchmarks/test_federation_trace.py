"""Federation trace bench — the observability layer's own artifact.

Runs the demo distributed query through two observing JClarens servers
and emits ``benchmarks/results/BENCH_federation.json`` via the same
report path as ``python -m repro.tools.tracereport --json``: one span
tree covering decompose → per-sub-query route/execute/transfer → merge
across both servers, plus each server's metrics snapshot.
"""

import json

from repro.obs.trace import Span, format_span_tree
from repro.tools.tracereport import DEMO_SQL, build_observed_federation, build_report

from benchmarks.conftest import RESULTS_DIR, fmt_row, rows_digest, write_report


def _cold_run() -> tuple:
    """The report's cold demo query, rerun on a fresh twin federation:
    (rows digest, exact sim ms, bytes moved on the network)."""
    fed, a, _b = build_observed_federation(cache=True)
    moved = fed.network.bytes_moved
    t0 = fed.clock.now_ms
    answer = a.service.execute(DEMO_SQL)
    return rows_digest(answer.rows), repr(fed.clock.now_ms - t0), fed.network.bytes_moved - moved


def _emit(report: dict):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_federation.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


class TestFederationTrace:
    def test_emit_artifact(self, benchmark):
        report = build_report()
        path = _emit(report)
        assert json.loads(path.read_text())["trace_id"] == report["trace_id"]
        digest = _cold_run()
        assert round(float(digest[1]), 3) == report["total_ms"]
        lines = [
            f"trace {report['trace_id']}: {report['total_ms']} simulated ms,"
            f" {len(report['spans'])} spans, {report['rows']} rows",
            f"artifact: {path.name}",
            "",
            *report["tree"],
            "",
            "rows: sha256[:16] of the cold query's answer rows in order; exact sim ms;",
            "bytes moved on the network (the query runs at the service, no client wire)",
            fmt_row(["query", "rows", "sim ms", "bytes moved"], [6, 16, 20, 11]),
            fmt_row(["cold", *digest], [6, 16, 20, 11]),
        ]
        write_report(
            "federation_trace", "Federation-Wide Query Trace", lines
        )
        benchmark(lambda: None)

    def test_trace_covers_whole_lifecycle(self, benchmark):
        report = build_report()
        stages = {Span.from_dict(d).stage for d in report["spans"]}
        assert {"query", "decompose", "subquery", "transfer", "merge"} <= stages
        benchmark(lambda: None)

    def test_remote_spans_parent_into_origin_tree(self, benchmark):
        report = build_report()
        spans = [Span.from_dict(d) for d in report["spans"]]
        tree = format_span_tree(spans)
        # one root line (no glyph) and every span rendered exactly once
        assert len(tree) == len(spans)
        assert sum(1 for line in tree if not line.startswith(("├", "└", "│", " "))) == 1
        benchmark(lambda: build_report())
