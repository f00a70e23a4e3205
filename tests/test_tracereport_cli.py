"""The tracereport CLI: human tree, JSON artifact, and the facts its
span tree and metrics must show.

The JSON report is built once per module; a test's name is the check it
makes on it.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.obs.trace import Span
from repro.tools.tracereport import build_report, main


@pytest.fixture(scope="module")
def report_text():
    """What ``python -m repro.tools.tracereport --json`` prints."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["--json"]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def report(report_text):
    return json.loads(report_text)


@pytest.fixture(scope="module")
def spans(report):
    return [Span.from_dict(d) for d in report["spans"]]


@pytest.fixture(scope="module")
def root(spans):
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1
    return roots[0]


def stages(spans) -> dict[str, list[Span]]:
    by_stage: dict[str, list[Span]] = {}
    for span in spans:
        by_stage.setdefault(span.stage, []).append(span)
    return by_stage


class TestTraceReportCLI:
    def test_human_report(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "trace jclarens-a-t1" in out
        assert "├─" in out and "└─" in out
        assert "monitor_spans" in out
        assert "histogram query_ms" in out

    def test_json_report(self, report):
        for key in (
            "trace_id", "spans", "tree", "metrics", "total_ms",
            "monitor_span_count",
        ):
            assert key in report
        # "distributed answer"
        assert report["distributed"] is True
        assert report["servers_accessed"] == 2

    def test_json_out_file(self, tmp_path, capsys):
        target = tmp_path / "BENCH_federation.json"
        assert main(["--json", "--out", str(target)]) == 0
        report = json.loads(target.read_text())
        assert report["rows"] == 7
        assert len(report["spans"]) == len(report["tree"])

    def test_report_is_deterministic(self, report_text):
        assert json.dumps(build_report(), indent=2, sort_keys=True) + "\n" == report_text


class TestSpanTree:
    """The cold demo query's trace, across both servers."""

    def test_one_root_span_and_it_is_the_query_stage(self, root):
        assert root.stage == "query"

    @pytest.mark.parametrize("stage", ["decompose", "rls_lookup", "merge", "transfer"])
    def test_stage_span_present(self, spans, stage):
        """decompose, rls_lookup and merge span present; transfer spans present"""
        assert stage in stages(spans)

    def test_two_subquery_spans(self, spans):
        assert len(stages(spans).get("subquery", [])) >= 2

    def test_remote_servers_spans_joined_the_trace(self, spans):
        assert any(s.server == "jclarens-b" for s in spans)

    def test_every_span_belongs_to_the_one_trace(self, spans, report):
        assert all(s.trace_id == report["trace_id"] for s in spans)

    def test_every_non_root_parent_id_resolves(self, spans, root):
        ids = {s.span_id for s in spans}
        assert all(
            s.parent_id in ids
            for s in spans
            if s is not root and s.parent_id is not None
        )

    def test_child_spans_sit_inside_the_roots_interval(self, spans, root):
        assert all(
            s.start_ms >= root.start_ms - 1e-9
            and (s.end_ms or s.start_ms) <= (root.end_ms or 0) + 1e-9
            for s in spans
            if s is not root and s.server == "jclarens-a"
        )

    def test_root_duration_equals_the_reported_total(self, root, report):
        assert abs(root.duration_ms - report["total_ms"]) < 1e-3

    def test_monitor_spans_sees_the_finished_trace(self, spans, report):
        assert report["monitor_span_count"] >= len(spans)


class TestMetricsAndCache:
    """Server A's metrics, and the warm repeat's cache hits."""

    def test_queries_counter_incremented(self, report):
        assert report["metrics"]["jclarens-a"]["counters"].get("queries", 0) >= 1

    def test_query_ms_histogram_fed(self, report):
        histograms = report["metrics"]["jclarens-a"]["histograms"]
        assert histograms.get("query_ms", {}).get("count", 0) >= 1

    def test_remote_route_counted(self, report):
        counters = report["metrics"]["jclarens-a"]["counters"]
        assert counters.get("subqueries.remote", 0) >= 1

    @pytest.mark.parametrize("level", ["plan", "sub", "remote"])
    def test_warm_repeat_hit_each_cache_level(self, report, level):
        """warm repeat hit the plan, sub-result and remote-answer cache"""
        assert report["cache"][level]["hits"] >= 1

    def test_warm_repeat_faster_than_the_cold_run(self, report):
        assert report["warm_ms"] < report["total_ms"]
