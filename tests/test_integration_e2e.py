"""End-to-end integration: the paper's complete data path in one test
session — sources → warehouse → marts → federation → analysis — plus
the XSpec file store round trip.
"""

import pytest

from repro.analysis import JASPlugin
from repro.common import DeterministicRNG
from repro.core import GridFederation
from repro.engine import Database
from repro.hep import build_tier_sources, etl_jobs_for_source
from repro.marts import MartSet
from repro.warehouse import Warehouse

NVAR = 6


@pytest.fixture(scope="module")
def pipeline():
    """Run the full Stage 1 + Stage 2 + serving pipeline once."""
    rng = DeterministicRNG("e2e")
    fed = GridFederation()
    fed.add_host("tier1.cern.ch", 1)
    fed.add_host("tier2.caltech.edu", 2)

    tier1, tier2 = build_tier_sources(rng, n_runs=4, events_per_run=60, nvar=NVAR)
    warehouse = Warehouse(fed.network, fed.clock, nvar=NVAR)
    for source, host in ((tier1, "tier1.cern.ch"), (tier2, "tier2.caltech.edu")):
        for job in etl_jobs_for_source(source, host, NVAR):
            warehouse.load(job)

    marts = MartSet(warehouse)
    mysql_mart = Database("analysis_mart", "mysql")
    sqlite_mart = Database("laptop_mart", "sqlite")
    marts.add_mart(mysql_mart, "pc1.caltech.edu")
    marts.add_mart(sqlite_mart, "laptop.cern.ch")
    marts.replicate(["v_event_wide", "v_run_summary", "v_calibration"])

    server = fed.create_server("jclarens1", "pc1.caltech.edu")
    fed.attach_database(server, mysql_mart, db_host="pc1.caltech.edu")
    client = fed.client("laptop.cern.ch")
    return fed, server, client, warehouse, tier1, tier2, mysql_mart, sqlite_mart


class TestEndToEnd:
    def test_every_source_event_reaches_the_warehouse(self, pipeline):
        _, _, _, warehouse, tier1, tier2, *_ = pipeline
        source_total = (
            tier1.execute("SELECT COUNT(*) FROM events").rows[0][0]
            + tier2.execute("SELECT COUNT(*) FROM events").rows[0][0]
        )
        assert warehouse.row_count("event_fact") == source_total == 240

    def test_warehouse_values_match_source_eav(self, pipeline):
        _, _, _, warehouse, tier1, *_ = pipeline
        eav = tier1.execute(
            "SELECT ev.value FROM event_values ev "
            "JOIN variables v ON ev.variable_id = v.variable_id "
            "WHERE ev.event_id = 5 AND v.var_index = 2"
        ).rows[0][0]
        wide = warehouse.db.execute(
            "SELECT var_2 FROM event_fact WHERE event_id = 5"
        ).rows[0][0]
        assert wide == pytest.approx(eav)

    def test_marts_agree_with_each_other(self, pipeline):
        *_, mysql_mart, sqlite_mart = pipeline
        a = mysql_mart.execute(
            "SELECT run_id, n_events FROM v_run_summary ORDER BY run_id"
        ).rows
        b = sqlite_mart.execute(
            "SELECT run_id, n_events FROM v_run_summary ORDER BY run_id"
        ).rows
        assert a == b

    def test_mart_aggregates_match_warehouse(self, pipeline):
        _, _, _, warehouse, _, _, mysql_mart, _ = pipeline
        wh = warehouse.db.execute(
            "SELECT run_id, mean_var0 FROM v_run_summary ORDER BY run_id"
        ).rows
        mart = mysql_mart.execute(
            "SELECT run_id, mean_var0 FROM v_run_summary ORDER BY run_id"
        ).rows
        for (wr, wm), (mr, mm) in zip(wh, mart):
            assert wr == mr
            assert mm == pytest.approx(wm)

    def test_grid_query_equals_direct_mart_query(self, pipeline):
        fed, server, client, *_ , mysql_mart, _ = pipeline
        sql = "SELECT run_id, n_events FROM v_run_summary ORDER BY run_id"
        grid = fed.query(client, server, sql)
        direct = mysql_mart.execute(sql)
        assert grid.answer.rows == direct.rows

    def test_cross_table_mart_join_through_grid(self, pipeline):
        fed, server, client, *_ = pipeline
        outcome = fed.query(
            client,
            server,
            "SELECT w.run_id, s.n_events, COUNT(*) AS wide_rows "
            "FROM v_event_wide w JOIN v_run_summary s ON w.run_id = s.run_id "
            "GROUP BY w.run_id, s.n_events ORDER BY w.run_id",
        )
        for run_id, n_events, wide_rows in outcome.answer.rows:
            assert n_events == wide_rows == 60

    def test_histogram_over_the_grid(self, pipeline):
        fed, server, client, *_ = pipeline
        jas = JASPlugin(fed, client, server)
        hist = jas.histogram_query(
            "SELECT var_0 FROM v_event_wide", "var_0", nbins=12
        )
        assert hist.entries == 240

    def test_simulated_time_accrued_monotonically(self, pipeline):
        fed, server, client, *_ = pipeline
        t0 = fed.clock.now_ms
        fed.query(client, server, "SELECT COUNT(*) FROM v_event_wide")
        assert fed.clock.now_ms > t0
