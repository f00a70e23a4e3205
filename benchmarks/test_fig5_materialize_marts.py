"""Figure 5 — Views extracted from the data warehouse and materialized
into data marts (§5.1, Stage 2).

Paper: view extracts of up to ~80 kB materialized into the marts
(MySQL, MS SQL Server, Oracle, SQLite); times reach tens of seconds —
several times slower per byte than the Stage-1 warehouse load, because
every mart row is an autocommitted single INSERT (no multi-row VALUES
on the 2005 vendors).
"""

import pytest

from repro.common.rng import DeterministicRNG
from repro.engine import Database
from repro.hep import (
    create_source_schema,
    etl_jobs_for_source,
    events_for_target_kb,
    generate_ntuple,
    populate_source,
)
from repro.marts import MartSet
from repro.net import Network, SimClock
from repro.warehouse import Warehouse

from benchmarks.conftest import fmt_row, rows_digest, write_report

#: the paper's Figure-5 x-axis range (kB of view data)
SIZES_KB = [5, 15, 30, 45, 60, 70, 80]
NVAR = 8
MART_VENDORS = ["mysql", "mssql", "oracle", "sqlite"]


def stage2_world(kb: float):
    """Materialize a ~kb view into the four vendor marts; returns
    (marts, their reports)."""
    n_events = events_for_target_kb(kb, NVAR)
    rng = DeterministicRNG(f"fig5-{kb}")
    source = Database("tier1_source", "oracle")
    create_source_schema(source)
    populate_source(source, rng, {1: generate_ntuple(rng.fork("nt"), n_events, NVAR)})
    network = Network()
    network.add_host("tier1.cern.ch", 1)
    clock = SimClock()
    warehouse = Warehouse(network, clock, nvar=NVAR)
    warehouse.load(etl_jobs_for_source(source, "tier1.cern.ch", NVAR)[0])
    marts = MartSet(warehouse)
    for i, vendor in enumerate(MART_VENDORS):
        marts.add_mart(Database(f"mart_{vendor}", vendor), f"mart{i}.caltech.edu")
    return marts, marts.replicate(["v_event_wide"])


def phases(reports):
    """(view kB, summed extraction s, summed loading s, reports)."""
    view_kb = reports[0].staged_kb
    extract_s = sum(r.extraction_s for r in reports)
    load_s = sum(r.loading_s for r in reports)
    return view_kb, extract_s, load_s, reports


def run_stage2(kb: float):
    """Materialize a ~kb view into the four vendor marts; sum phases."""
    return phases(stage2_world(kb)[1])


@pytest.fixture(scope="module")
def sweep():
    worlds = [stage2_world(kb) for kb in SIZES_KB]
    results = [phases(reports) for _, reports in worlds]
    widths = [10, 10, 12, 10]
    lines = [fmt_row(["target kB", "view kB", "extract s", "load s"], widths)]
    for kb, (view_kb, ex, ld, _) in zip(SIZES_KB, results):
        lines.append(
            fmt_row([f"{kb:.0f}", f"{view_kb:.2f}", f"{ex:.2f}", f"{ld:.2f}"], widths)
        )
    lines += [
        "",
        "paper: at ~70 kB the loading (upper) line reaches ~80 s; loading",
        "sits far above extraction; per-byte cost is several times the",
        "Stage-1 (Figure 4) warehouse load because of per-row autocommit.",
        f"(materialized into {len(MART_VENDORS)} marts: {', '.join(MART_VENDORS)})",
        "",
        "rows: sha256[:16] of each mart's v_event_wide rows in storage order;",
        "exact sim ms summed over the marts",
        fmt_row(["target kB", *MART_VENDORS, "extract ms", "load ms"],
                [10, 16, 16, 16, 16, 20, 20]),
    ]
    for kb, (marts, reports) in zip(SIZES_KB, worlds):
        digests = [rows_digest(db.catalog.get_table("v_event_wide").rows) for db, _ in marts.marts]
        lines.append(
            fmt_row(
                [f"{kb:.0f}", *digests, repr(sum(r.extraction_ms for r in reports)),
                 repr(sum(r.loading_ms for r in reports))],
                [10, 16, 16, 16, 16, 20, 20],
            )
        )
    write_report("fig5_materialize_marts", "Figure 5 — Warehouse -> Data Marts", lines)
    return results


class TestFig5:
    def test_loading_dominates_extraction(self, sweep, benchmark):
        for _, ex, ld, _ in sweep:
            assert ld > ex
        benchmark(lambda: None)

    def test_times_grow_with_size(self, sweep, benchmark):
        loads = [ld for _, _, ld, _ in sweep]
        assert all(b > a for a, b in zip(loads, loads[1:]))
        benchmark(lambda: None)

    def test_mart_load_slower_per_byte_than_warehouse_load(self, sweep, benchmark):
        """The Figure 5 vs Figure 4 crossover: marts are >=5x worse."""
        from benchmarks.test_fig4_etl_warehouse import run_stage1

        wh = run_stage1(70.0)
        view_kb, _, ld, _ = run_stage2(70.0)
        mart_per_kb = ld / view_kb
        wh_per_kb = wh.loading_s / wh.staged_kb
        assert mart_per_kb > 5 * wh_per_kb
        benchmark(lambda: None)

    def test_70kb_point_matches_paper_scale(self, sweep, benchmark):
        view_kb, _, ld, _ = run_stage2(70.0)
        # paper's upper line at ~70 kB: tens of seconds (read ~80 s)
        assert 40.0 < ld < 120.0
        benchmark(lambda: run_stage2(5.0))

    def test_every_vendor_mart_received_the_view(self, sweep, benchmark):
        _, _, _, reports = sweep[-1]
        assert len(reports) == len(MART_VENDORS)
        rows = {r.rows for r in reports}
        assert len(rows) == 1  # same view, same rows, every vendor
        benchmark(lambda: None)
