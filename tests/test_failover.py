"""Failure-injection tests: dead databases, dead servers, replica failover."""

import pytest

from repro.common import ConnectionFailedError
from repro.common.errors import FederationError
from repro.core import GridFederation
from repro.engine import Database


def make_events_db(name, n=10, vendor="mysql"):
    db = Database(name, vendor)
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, ENERGY DOUBLE)")
    for i in range(n):
        db.execute(f"INSERT INTO EVT VALUES ({i}, {i * 1.0})")
    return db


@pytest.fixture
def replicated():
    """'events' hosted on two databases behind one server."""
    fed = GridFederation()
    server = fed.create_server("jc1", "pc1")
    primary = make_events_db("primary_mart")
    # the replica uses a different vendor, exercising re-planning
    replica = make_events_db("replica_mart", vendor="sqlite")
    fed.attach_database(server, primary, logical_names={"EVT": "events"})
    fed.attach_database(server, replica, db_host="pc2", logical_names={"EVT": "events"})
    return fed, server


class TestSubQueryFailover:
    def test_query_survives_primary_death(self, replicated):
        fed, server = replicated
        url = server.service.dictionary.url_for("primary_mart")
        fed.directory.unregister(url)  # the database process dies
        answer = server.service.execute("SELECT COUNT(*) FROM events")
        assert answer.rows == [(10,)]

    def test_failover_works_inside_a_join(self, replicated):
        fed, server = replicated
        runs = Database("runs_mart", "mssql")
        runs.execute("CREATE TABLE RUNS (RUN_ID INT PRIMARY KEY)")
        runs.execute("INSERT INTO RUNS VALUES (0)")
        fed.attach_database(server, runs)
        url = server.service.dictionary.url_for("primary_mart")
        fed.directory.unregister(url)
        answer = server.service.execute(
            "SELECT COUNT(*) FROM events e JOIN runs r ON e.event_id = r.run_id"
        )
        assert answer.rows == [(1,)]

    def test_failover_of_a_whole_pushed_join(self):
        """Both joined tables live on one mart, so the join is pushed as
        one sub-query; when the mart's host dies the whole join must run
        on the replica mart, not just one of its tables."""
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")
        for name, vendor, host in (("primary_mart", "mysql", "db1"),
                                   ("replica_mart", "sqlite", "db2")):
            db = make_events_db(name, vendor=vendor)
            db.execute("CREATE TABLE RUNS (RUN_ID INT PRIMARY KEY, LABEL VARCHAR(8))")
            db.execute("INSERT INTO RUNS VALUES (2, 'two')")
            db.execute("INSERT INTO RUNS VALUES (5, 'five')")
            fed.attach_database(
                server, db, db_host=host,
                logical_names={"EVT": "events", "RUNS": "runs"},
            )
        sql = (
            "SELECT e.event_id, r.label FROM events e JOIN runs r "
            "ON e.event_id = r.run_id ORDER BY e.event_id"
        )
        service = server.service
        before = service.execute(sql)
        assert [t.database for t in before.traces] == ["primary_mart"]
        fed.network.fail_host("db1")
        after = service.execute(sql)
        assert [t.database for t in after.traces] == ["replica_mart"]
        assert after.columns == before.columns
        assert after.rows == before.rows == [(2, "two"), (5, "five")]
        assert service.metrics.counter("failovers").value == 1

    def test_all_replicas_dead_raises(self, replicated):
        fed, server = replicated
        for name in ("primary_mart", "replica_mart"):
            fed.directory.unregister(server.service.dictionary.url_for(name))
        with pytest.raises(ConnectionFailedError):
            server.service.execute("SELECT COUNT(*) FROM events")

    def test_no_replica_means_original_error(self):
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")
        only = make_events_db("only_mart")
        fed.attach_database(server, only, logical_names={"EVT": "events"})
        fed.directory.unregister(server.service.dictionary.url_for("only_mart"))
        with pytest.raises(ConnectionFailedError):
            server.service.execute("SELECT COUNT(*) FROM events")

    def test_failover_answers_match_primary(self, replicated):
        fed, server = replicated
        before = server.service.execute("SELECT event_id FROM events ORDER BY event_id")
        fed.directory.unregister(server.service.dictionary.url_for("primary_mart"))
        after = server.service.execute("SELECT event_id FROM events ORDER BY event_id")
        assert after.rows == before.rows


class TestRemoteDiscoveryFailover:
    def test_stale_rls_entry_skipped(self):
        """The RLS lists a dead server first; discovery moves on."""
        fed = GridFederation()
        s1 = fed.create_server("jc1", "pc1")
        s2 = fed.create_server("jc2", "pc2")
        db = make_events_db("mart_b")
        fed.attach_database(s2, db, logical_names={"EVT": "events"})
        # poison the RLS with a dead server URL listed FIRST
        fed.rls_server._mappings["events"].insert(0, "clarens://ghost/jcX")
        answer = s1.service.execute("SELECT COUNT(*) FROM events")
        assert answer.rows == [(10,)]

    def test_every_rls_entry_dead_raises(self):
        fed = GridFederation()
        s1 = fed.create_server("jc1", "pc1")
        fed.rls_server._mappings["events"] = ["clarens://ghost/jcX"]
        with pytest.raises(FederationError):
            s1.service.execute("SELECT COUNT(*) FROM events")

    def test_remote_server_vanishes_after_discovery(self):
        """A cached remote location whose server dies raises cleanly."""
        fed = GridFederation()
        s1 = fed.create_server("jc1", "pc1")
        s2 = fed.create_server("jc2", "pc2")
        db = make_events_db("mart_b")
        fed.attach_database(s2, db, logical_names={"EVT": "events"})
        assert s1.service.execute("SELECT COUNT(*) FROM events").rows == [(10,)]
        # the remote database process dies; forwarded queries now fail
        fed.directory.unregister(s2.service.dictionary.url_for("mart_b"))
        with pytest.raises(ConnectionFailedError):
            s1.service.execute("SELECT COUNT(*) FROM events")


class TestAuthFailures:
    def test_wrong_service_credentials_rejected(self):
        fed = GridFederation()
        s1 = fed.create_server("jc1", "pc1")
        client = fed.client("laptop")
        from repro.common import AuthenticationError

        with pytest.raises(AuthenticationError):
            client.connect(s1.server, user="intruder", password="nope")

    def test_database_credentials_checked_on_jdbc_path(self):
        fed = GridFederation()
        s1 = fed.create_server("jc1", "pc1")
        db = Database("locked", "mssql")
        db.execute("CREATE TABLE T (A INT)")
        from repro.dialects import get_dialect

        url = get_dialect("mssql").make_url("pc1", None, "locked")
        fed.directory.register(url, db, user="dba", password="secret", host_name="pc1")
        # service registers with default grid/grid credentials -> POOL init
        # is skipped (mssql unsupported) and JDBC connect later fails auth
        from repro.common import AuthenticationError

        s1.service.register_database(url)
        with pytest.raises(AuthenticationError):
            s1.service.execute("SELECT a FROM t")


class TestCrossServerFailover:
    def test_failover_to_replica_on_another_server(self):
        """The dead database's only replica lives behind a different
        JClarens server: failover goes through the RLS + forwarding."""
        fed = GridFederation()
        s1 = fed.create_server("jc1", "pc1")
        s2 = fed.create_server("jc2", "pc2")
        local = make_events_db("local_mart")
        remote = make_events_db("remote_mart", vendor="sqlite")
        fed.attach_database(s1, local, logical_names={"EVT": "events"})
        fed.attach_database(s2, remote, db_host="pc2", logical_names={"EVT": "events"})
        # the local copy dies
        fed.directory.unregister(s1.service.dictionary.url_for("local_mart"))
        answer = s1.service.execute("SELECT COUNT(*) FROM events")
        assert answer.rows == [(10,)]
        assert fed.rls_server.lookups >= 1

    def test_failover_preserves_filtered_results(self):
        fed = GridFederation()
        s1 = fed.create_server("jc1", "pc1")
        s2 = fed.create_server("jc2", "pc2")
        local = make_events_db("local_mart")
        remote = make_events_db("remote_mart", vendor="sqlite")
        fed.attach_database(s1, local, logical_names={"EVT": "events"})
        fed.attach_database(s2, remote, db_host="pc2", logical_names={"EVT": "events"})
        expected = s1.service.execute(
            "SELECT event_id FROM events WHERE energy > 4 ORDER BY event_id"
        ).rows
        fed.directory.unregister(s1.service.dictionary.url_for("local_mart"))
        survived = s1.service.execute(
            "SELECT event_id FROM events WHERE energy > 4 ORDER BY event_id"
        ).rows
        assert survived == expected
