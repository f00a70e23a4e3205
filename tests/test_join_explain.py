"""Tests for the engine's join choice and federated EXPLAIN."""

import pytest

from repro.engine import Database


@pytest.fixture
def db():
    d = Database("u", "mysql")
    d.execute("CREATE TABLE a (x INT, label VARCHAR(10))")
    d.execute("CREATE TABLE b (x INT, label VARCHAR(10))")
    d.execute("INSERT INTO a VALUES (1,'one'),(2,'two'),(3,'three')")
    d.execute("INSERT INTO b VALUES (3,'three'),(4,'four')")
    return d


class TestJoinStrategy:
    """The executor's join choice, read off ``rows_examined``: a hash
    join examines each side once, a nested loop every pair."""

    def test_equi_join_is_hashed(self, db):
        r = db.execute("SELECT * FROM a JOIN b ON a.x = b.x")
        assert r.rows == [(3, "three", 3, "three")]
        assert r.stats.rows_examined == 3 + 2 + 3 + 2  # scans, then the hash join

    def test_theta_join_is_a_nested_loop(self, db):
        r = db.execute("SELECT a.x, b.x FROM a JOIN b ON a.x > b.x")
        assert r.rows == []
        assert r.stats.rows_examined == 3 + 2 + 3 * 2

    def test_residual_conjunct_stays_on_the_hash_join(self, db):
        r = db.execute("SELECT a.x FROM a JOIN b ON a.x = b.x AND a.x > 3")
        assert r.rows == []
        assert r.stats.rows_examined == 3 + 2 + 3 + 2


class TestFederatedExplain:
    @pytest.fixture
    def fed(self):
        from repro.core import GridFederation

        federation = GridFederation()
        s1 = federation.create_server("jc1", "pc1")
        s2 = federation.create_server("jc2", "pc2")
        mysql = Database("m1", "mysql")
        mysql.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, RUN_ID INT)")
        mysql.execute("INSERT INTO EVT VALUES (1, 0)")
        federation.attach_database(s1, mysql, logical_names={"EVT": "events"})
        mssql = Database("m2", "mssql")
        mssql.execute("CREATE TABLE RUNS (RUN_ID INT PRIMARY KEY)")
        mssql.execute("INSERT INTO RUNS VALUES (0)")
        federation.attach_database(s1, mssql, logical_names={"RUNS": "runs"})
        sqlite = Database("m3", "sqlite")
        sqlite.execute("CREATE TABLE calib (run_id INTEGER PRIMARY KEY)")
        sqlite.execute("INSERT INTO calib VALUES (0)")
        federation.attach_database(s2, sqlite)
        return federation, s1, s2

    def test_single_plan_explained(self, fed):
        federation, s1, _ = fed
        info = s1.service.explain("SELECT event_id FROM events")
        assert info["kind"] == "single"
        assert not info["distributed"]
        assert info["integration"] is None
        assert info["subqueries"][0]["route"] == "pool"

    def test_routes_predicted(self, fed):
        federation, s1, _ = fed
        info = s1.service.explain(
            "SELECT e.event_id FROM events e JOIN runs r ON e.run_id = r.run_id "
            "WHERE e.event_id > 0"
        )
        routes = {s["binding"]: s["route"] for s in info["subqueries"]}
        assert routes == {"e": "pool", "r": "jdbc"}
        assert info["integration"] is not None

    def test_pushed_predicates_listed(self, fed):
        federation, s1, _ = fed
        info = s1.service.explain(
            "SELECT e.event_id FROM events e JOIN runs r ON e.run_id = r.run_id "
            "WHERE e.event_id > 5"
        )
        by_binding = {s["binding"]: s for s in info["subqueries"]}
        assert by_binding["e"]["pushed_predicates"] == ["(e.event_id > 5)"]

    def test_remote_route_predicted(self, fed):
        federation, s1, _ = fed
        info = s1.service.explain(
            "SELECT e.event_id FROM events e JOIN calib c ON e.run_id = c.run_id"
        )
        routes = {s["binding"]: s["route"] for s in info["subqueries"]}
        assert routes["c"] == "remote"

    def test_explain_over_the_wire(self, fed):
        federation, s1, _ = fed
        client = federation.client("laptop")
        info = client.call(s1.server, "dataaccess.explain", "SELECT event_id FROM events")
        assert info["kind"] == "single"
