"""Unit tests for the warehouse, ETL pipeline and mart materialization."""

import pytest

from repro.common import DeterministicRNG
from repro.common.errors import ETLError
from repro.engine import Database
from repro.hep import (
    build_tier_sources,
    etl_jobs_for_source,
    events_for_target_kb,
    pivot_eav,
)
from repro.marts import MartSet, materialize_view
from repro.net import Network, SimClock
from repro.warehouse import StagingFile, Warehouse
from repro.warehouse.schema import var_columns


@pytest.fixture
def world():
    net = Network()
    clock = SimClock()
    net.add_host("tier1", 1)
    net.add_host("tier2", 2)
    rng = DeterministicRNG("etl-test")
    t1, t2 = build_tier_sources(rng, n_runs=4, events_per_run=25, nvar=6)
    wh = Warehouse(net, clock, nvar=6)
    return net, clock, t1, t2, wh


def load_all(wh, t1, t2):
    for job in etl_jobs_for_source(t1, "tier1", 6) + etl_jobs_for_source(t2, "tier2", 6):
        wh.load(job)


class TestStagingFile:
    def test_write_read_round_trip(self):
        clock = SimClock()
        staging = StagingFile(clock)
        staging.write(["a", "b"], [(1, "x"), (2, "y")], 8)
        columns, rows = staging.read_all()
        assert columns == ["a", "b"]
        assert rows == [(1, "x"), (2, "y")]
        assert staging.nbytes == 8

    def test_disk_time_charged(self):
        clock = SimClock()
        staging = StagingFile(clock)
        staging.write(["a"], [(i,) for i in range(1000)], 3890)
        assert clock.now_ms > 0

    def test_mixed_shapes_rejected(self):
        staging = StagingFile(SimClock())
        staging.write(["a"], [(1,)], 2)
        with pytest.raises(ETLError):
            staging.write(["b"], [(2,)], 2)


class TestPivot:
    def test_pivot_shapes_wide_rows(self):
        transform = pivot_eav(3)
        columns = ["event_id", "run_id", "detector", "var_index", "value"]
        rows = [
            (1, 7, "ECAL", 0, 0.5),
            (1, 7, "ECAL", 1, 1.5),
            (1, 7, "ECAL", 2, 2.5),
            (2, 7, "ECAL", 0, 9.0),
        ]
        out_cols, out_rows = transform(columns, rows)
        assert out_cols == ["event_id", "run_id", "detector"] + var_columns(3)
        assert out_rows[0] == (1, 7, "ECAL", 0.5, 1.5, 2.5)
        assert out_rows[1] == (2, 7, "ECAL", 9.0, None, None)  # missing -> NULL

    def test_pivot_ignores_out_of_range_indices(self):
        transform = pivot_eav(2)
        _, out = transform(
            ["event_id", "run_id", "detector", "var_index", "value"],
            [(1, 1, "X", 5, 3.3)],
        )
        assert out == [(1, 1, "X", None, None)]

    def test_pivot_validates_columns(self):
        with pytest.raises(ETLError):
            pivot_eav(2)(["wrong"], [])


class TestETLPipeline:
    def test_row_conservation(self, world):
        _, _, t1, t2, wh = world
        load_all(wh, t1, t2)
        source_events = (
            t1.execute("SELECT COUNT(*) FROM events").rows[0][0]
            + t2.execute("SELECT COUNT(*) FROM events").rows[0][0]
        )
        assert wh.row_count("event_fact") == source_events == 100

    def test_values_survive_pivot(self, world):
        _, _, t1, _, wh = world
        wh.load(etl_jobs_for_source(t1, "tier1", 6)[0])
        # pick one event and check its var_0 equals the source EAV value
        eav = t1.execute(
            "SELECT ev.value FROM event_values ev "
            "JOIN variables v ON ev.variable_id = v.variable_id "
            "WHERE ev.event_id = 1 AND v.var_index = 0"
        ).rows[0][0]
        wide = wh.db.execute(
            "SELECT var_0 FROM event_fact WHERE event_id = 1"
        ).rows[0][0]
        assert wide == pytest.approx(eav)

    def test_extraction_and_loading_timed_separately(self, world):
        _, _, t1, _, wh = world
        report = wh.load(etl_jobs_for_source(t1, "tier1", 6)[0])
        assert report.extraction_ms > 0
        assert report.loading_ms > 0
        assert report.staged_bytes > 0

    def test_loading_dominates_extraction_for_large_jobs(self, world):
        # the paper's Figure 4: the upper (loading) line sits above the
        # lower (extraction) line
        _, _, t1, _, wh = world
        report = wh.load(etl_jobs_for_source(t1, "tier1", 6)[0])
        assert report.loading_ms > report.extraction_ms

    def test_direct_mode_skips_staging_and_is_faster(self, world):
        net, clock, t1, t2, wh = world
        staged = wh.load(etl_jobs_for_source(t1, "tier1", 6)[0])
        direct = wh.load(etl_jobs_for_source(t2, "tier2", 6)[0], direct=True)
        staged_total = staged.extraction_ms + staged.loading_ms
        direct_total = direct.extraction_ms + direct.loading_ms
        assert direct_total < staged_total

    def test_reports_accumulate(self, world):
        _, _, t1, _, wh = world
        for job in etl_jobs_for_source(t1, "tier1", 6):
            wh.load(job)
        assert len(wh.pipeline.reports) == 4

    def test_larger_transfers_take_longer(self, world):
        net, clock, *_ = world
        rng = DeterministicRNG("size-scale")
        small_t1, _ = build_tier_sources(rng.fork("s"), n_runs=2, events_per_run=10, nvar=6)
        big_t1, _ = build_tier_sources(rng.fork("b"), n_runs=2, events_per_run=100, nvar=6)
        wh_small = Warehouse(net, clock, nvar=6)
        wh_big = Warehouse(net, clock, nvar=6)
        r_small = wh_small.load(etl_jobs_for_source(small_t1, "tier1", 6)[0])
        r_big = wh_big.load(etl_jobs_for_source(big_t1, "tier1", 6)[0])
        assert r_big.staged_bytes > r_small.staged_bytes
        assert r_big.loading_ms > r_small.loading_ms
        assert r_big.extraction_ms > r_small.extraction_ms


class TestWarehouseViews:
    def test_run_summary_aggregates(self, world):
        _, _, t1, t2, wh = world
        load_all(wh, t1, t2)
        rows = wh.db.execute("SELECT run_id, n_events FROM v_run_summary ORDER BY run_id").rows
        assert [r[1] for r in rows] == [25, 25, 25, 25]

    def test_event_wide_view_columns(self, world):
        _, _, t1, t2, wh = world
        load_all(wh, t1, t2)
        result = wh.db.execute("SELECT * FROM v_event_wide LIMIT 1")
        assert result.columns[:3] == ["event_id", "run_id", "detector"]


class TestMaterialization:
    @pytest.fixture
    def loaded(self, world):
        net, clock, t1, t2, wh = world
        load_all(wh, t1, t2)
        return net, clock, wh

    @pytest.mark.parametrize("vendor", ["mysql", "mssql", "oracle", "sqlite"])
    def test_materialize_into_each_vendor(self, loaded, vendor):
        net, clock, wh = loaded
        mart = Database(f"mart_{vendor}", vendor)
        net.add_host("marthost")
        report = materialize_view(wh, "v_run_summary", mart, "marthost")
        assert report.rows == 4
        assert mart.execute("SELECT COUNT(*) FROM v_run_summary").rows == [(4,)]

    def test_materialized_values_match_view(self, loaded):
        net, clock, wh = loaded
        mart = Database("m", "sqlite")
        net.add_host("marthost")
        materialize_view(wh, "v_run_summary", mart, "marthost")
        src = wh.db.execute("SELECT run_id, mean_var0 FROM v_run_summary ORDER BY run_id").rows
        dst = mart.execute("SELECT run_id, mean_var0 FROM v_run_summary ORDER BY run_id").rows
        for (sid, smean), (did, dmean) in zip(src, dst):
            assert sid == did and dmean == pytest.approx(smean)

    def test_missing_view_rejected(self, loaded):
        net, clock, wh = loaded
        with pytest.raises(ETLError):
            materialize_view(wh, "v_ghost", Database("m", "mysql"), "tier1")

    def test_rematerialize_replaces(self, loaded):
        net, clock, wh = loaded
        mart = Database("m", "mysql")
        net.add_host("marthost")
        materialize_view(wh, "v_run_summary", mart, "marthost")
        materialize_view(wh, "v_run_summary", mart, "marthost")
        assert mart.execute("SELECT COUNT(*) FROM v_run_summary").rows == [(4,)]

    def test_martset_replicates_views_to_all_marts(self, loaded):
        net, clock, wh = loaded
        ms = MartSet(wh)
        ms.add_mart(Database("m1", "mysql"), "hostA")
        ms.add_mart(Database("m2", "sqlite"), "hostB")
        reports = ms.replicate(["v_run_summary", "v_calibration"])
        assert len(reports) == 4
        for db, _host in ms.marts:
            assert db.catalog.has_table("v_run_summary")
            assert db.catalog.has_table("v_calibration")

    def test_mart_loading_slower_per_byte_than_warehouse(self, world):
        """Figure 5 vs Figure 4: materialization pays autocommit per row."""
        net, clock, t1, t2, wh = world
        load_all(wh, t1, t2)
        wh_report = wh.pipeline.reports[0]  # t1's event_fact job
        mart = Database("m", "mssql")
        net.add_host("marthost")
        mart_report = materialize_view(wh, "v_event_wide", mart, "marthost")
        wh_ms_per_byte = wh_report.loading_ms / wh_report.staged_bytes
        mart_ms_per_byte = mart_report.loading_ms / mart_report.staged_bytes
        assert mart_ms_per_byte > wh_ms_per_byte


def test_events_for_target_kb_monotone():
    small = events_for_target_kb(5, 8)
    large = events_for_target_kb(200, 8)
    assert 0 < small < large


class TestMartReplicationAgain:
    def test_replicating_again_brings_the_mart_up_to_date(self, world):
        net, clock, t1, t2, wh = world
        load_all(wh, t1, t2)
        ms = MartSet(wh)
        mart = Database("m1", "mysql")
        ms.add_mart(mart, "hostA")
        ms.replicate(["v_run_summary", "v_calibration"])
        sql = "SELECT run_id, n_events FROM v_run_summary ORDER BY run_id"
        facts = wh.db.catalog.get_table("event_fact")
        key = facts.column_position("event_id")
        facts.replace_rows([r for r in facts.rows if r[key] != 1])
        assert mart.execute(sql).rows != wh.db.execute(sql).rows
        reports = ms.replicate(["v_run_summary"])
        assert [r.job_table for r in reports] == ["v_run_summary"]
        assert mart.execute(sql).rows == wh.db.execute(sql).rows
