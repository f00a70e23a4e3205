"""Tests for cut-flow analysis."""

import pytest

from repro.analysis import CutFlow, grid_cutflow
from repro.common import ReproError
from repro.core import GridFederation
from repro.engine import Database


def local_cutflow(database, table: str) -> CutFlow:
    """A cut flow counting directly on one engine database."""

    def count(where):
        sql = f"SELECT COUNT(*) FROM {table}" + (f" WHERE {where}" if where else "")
        return database.execute(sql).rows[0][0]

    return CutFlow(count, table)


@pytest.fixture
def events_db():
    db = Database("cf", "mysql")
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, E DOUBLE, ETA DOUBLE)")
    rows = []
    for i in range(100):
        rows.append([i, float(i), (i % 50) / 10.0 - 2.5])
    db.bulk_insert("EVT", rows)
    return db


class TestLocalCutFlow:
    def test_stage_counts(self, events_db):
        flow = (
            local_cutflow(events_db, "EVT")
            .add_cut("energy", "E > 49")
            .add_cut("central", "ETA BETWEEN -1.0 AND 1.0")
        )
        stages = flow.run()
        assert stages[0].passed == 100
        assert stages[1].passed == 50
        assert 0 < stages[2].passed < 50

    def test_efficiencies_consistent(self, events_db):
        stages = (
            local_cutflow(events_db, "EVT")
            .add_cut("a", "E > 24")
            .add_cut("b", "E > 74")
            .run()
        )
        assert stages[1].passed == 75
        assert stages[2].passed == 25
        assert stages[2].marginal_efficiency == pytest.approx(25 / 75)
        assert stages[2].cumulative_efficiency == pytest.approx(0.25)

    def test_cuts_are_cumulative(self, events_db):
        stages = (
            local_cutflow(events_db, "EVT")
            .add_cut("low", "E < 10")
            .add_cut("high", "E > 90")  # contradicts the first cut
            .run()
        )
        assert stages[2].passed == 0
        assert stages[2].marginal_efficiency == 0.0

    def test_empty_predicate_rejected(self, events_db):
        with pytest.raises(ReproError):
            local_cutflow(events_db, "EVT").add_cut("bad", "   ")

    def test_render_table(self, events_db):
        text = (
            local_cutflow(events_db, "EVT").add_cut("e", "E > 49").render()
        )
        assert "all events" in text and "passed" in text

    def test_empty_table(self):
        db = Database("empty", "mysql")
        db.execute("CREATE TABLE EVT (E DOUBLE)")
        stages = local_cutflow(db, "EVT").add_cut("x", "E > 0").run()
        assert stages[0].passed == 0
        assert stages[1].cumulative_efficiency == 0.0


class TestGridCutFlow:
    def test_over_the_wire(self, events_db):
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")
        fed.attach_database(server, events_db, logical_names={"EVT": "events"})
        client = fed.client("laptop")
        flow = grid_cutflow(fed, client, server, "events").add_cut("e", "e > 49")
        stages = flow.run()
        assert stages[1].passed == 50

    def test_matches_local(self, events_db):
        local = (
            local_cutflow(events_db, "EVT").add_cut("e", "E > 30").run()
        )
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")
        fed.attach_database(server, events_db, logical_names={"EVT": "events"})
        client = fed.client("laptop")
        remote = (
            grid_cutflow(fed, client, server, "events").add_cut("e", "e > 30").run()
        )
        assert [s.passed for s in local] == [s.passed for s in remote]
