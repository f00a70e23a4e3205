"""Ablation A — the staging-file bottleneck (§5.1).

The paper: "the use of the temporary staging file during the process is
a performance bottleneck, and we are working on a cleaner way of
loading the warehouse directly from the normalized databases."
This bench quantifies that future-work claim: the same Stage-1 sweep
run through the staged pipeline vs the direct (no temp file) pipeline.
"""

import pytest

from benchmarks.conftest import fmt_row, rows_digest, write_report
from benchmarks.test_fig4_etl_warehouse import SIZES_KB, run_stage1, stage1_world


@pytest.fixture(scope="module")
def comparison():
    rows = []
    digests = []
    for kb in SIZES_KB[1:]:
        totals = []
        for mode, direct in (("staged", False), ("direct", True)):
            warehouse, rep = stage1_world(kb, direct=direct)
            totals.append(rep.extraction_s + rep.loading_s)
            digests.append((f"{kb:.3f}", mode,
                            rows_digest(warehouse.db.catalog.get_table("event_fact").rows),
                            repr(rep.extraction_ms), repr(rep.loading_ms), rep.staged_bytes))
        rows.append((kb, *totals))
    widths = [10, 10, 10, 8]
    lines = [fmt_row(["kB", "staged s", "direct s", "saved"], widths)]
    for kb, s, d in rows:
        lines.append(
            fmt_row([f"{kb:.3f}", f"{s:.2f}", f"{d:.2f}", f"{(1 - d / s) * 100:.0f}%"], widths)
        )
    lines += [
        "",
        "direct loading skips the temp-file write+read and one stream open/close.",
        "",
        "rows: sha256[:16] of event_fact's rows in storage order; exact sim ms; staged bytes",
        fmt_row(["kB", "mode", "event_fact", "extract ms", "load ms", "staged bytes"],
                [8, 6, 16, 20, 20, 12]),
        *[fmt_row(d, [8, 6, 16, 20, 20, 12]) for d in digests],
    ]
    write_report("ablation_staging", "Ablation A — Staged vs Direct ETL", lines)
    return rows


class TestStagingAblation:
    def test_direct_is_always_faster(self, comparison, benchmark):
        for _, staged, direct in comparison:
            assert direct < staged
        benchmark(lambda: None)

    def test_direct_produces_identical_rows(self, comparison, benchmark):
        staged = run_stage1(12.721, direct=False)
        direct = run_stage1(12.721, direct=True)
        assert staged.rows == direct.rows
        benchmark(lambda: None)

    def test_savings_are_disk_bound_not_constant(self, comparison, benchmark):
        """Absolute savings grow with size (the temp file scales)."""
        savings = [s - d for _, s, d in comparison]
        assert savings[-1] > savings[0]
        benchmark(lambda: run_stage1(8.217, direct=True))
