"""Integration: pre-flight analysis inside the federated service.

The point of static checking in the paper's architecture is to reject a
bad query *before* any sub-query ships over the WAN — so the key
assertion here is on the network counters, not just the exception.
"""

import pytest

from repro.common import PreflightError, SQLSyntaxError
from repro.core import GridFederation
from repro.engine import Database


def make_marts():
    mysql = Database("mart1", "mysql")
    mysql.execute(
        "CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, RUN_ID INT, ENERGY DOUBLE)"
    )
    for i in range(6):
        mysql.execute(f"INSERT INTO EVT VALUES ({i}, {i % 2}, {i * 2.0})")

    mssql = Database("mart2", "mssql")
    mssql.execute(
        "CREATE TABLE RUN_INFO (RUN_ID INT PRIMARY KEY, DETECTOR NVARCHAR(16))"
    )
    for i, det in enumerate(["cms", "atlas"]):
        mssql.execute(f"INSERT INTO RUN_INFO VALUES ({i}, '{det}')")
    return mysql, mssql


def one_server_federation(preflight: bool):
    """Both marts (two vendors) attached to a single JClarens server."""
    fed = GridFederation()
    s1 = fed.create_server("jc1", "pc1", preflight=preflight)
    mysql, mssql = make_marts()
    fed.attach_database(s1, mysql, logical_names={"EVT": "events"})
    fed.attach_database(s1, mssql, logical_names={"RUN_INFO": "runs"})
    return fed, s1


def two_server_federation(preflight: bool):
    """One mart per server; `runs` is remote from jc1's point of view."""
    fed = GridFederation()
    s1 = fed.create_server("jc1", "pc1", preflight=preflight)
    s2 = fed.create_server("jc2", "pc2", preflight=preflight)
    mysql, mssql = make_marts()
    fed.attach_database(s1, mysql, logical_names={"EVT": "events"})
    fed.attach_database(s2, mssql, logical_names={"RUN_INFO": "runs"})
    return fed, s1, s2


BAD_QUERIES = [
    # unknown column in a federated join
    "SELECT e.no_such FROM events e INNER JOIN runs r ON e.run_id = r.run_id",
    # numeric aggregate over a text column
    "SELECT SUM(r.detector) FROM events e INNER JOIN runs r ON e.run_id = r.run_id",
    # comparing a number with a string literal
    "SELECT e.energy FROM events e WHERE e.run_id > 'x'",
]

GOOD_JOIN = (
    "SELECT e.event_id, r.detector FROM events e "
    "INNER JOIN runs r ON e.run_id = r.run_id WHERE r.detector = 'cms'"
)


class TestServicePreflight:
    def test_bad_query_rejected_with_zero_network_traffic(self):
        fed, s1 = one_server_federation(preflight=True)
        for sql in BAD_QUERIES:
            before_msgs = fed.network.messages
            before_bytes = fed.network.bytes_moved
            with pytest.raises(PreflightError):
                s1.service.execute(sql)
            assert fed.network.messages == before_msgs, sql
            assert fed.network.bytes_moved == before_bytes, sql

    def test_remote_table_rejected_after_discovery_before_data(self):
        # with `runs` on a peer, RLS discovery runs first (it must, to
        # learn the schema) but the query is still refused before any
        # sub-query result rows move
        fed, s1, _ = two_server_federation(preflight=True)
        with pytest.raises(PreflightError) as exc:
            s1.service.execute(BAD_QUERIES[0])
        assert any(d.code == "RPR102" for d in exc.value.diagnostics)

    def test_good_query_executes_with_preflight_on(self):
        fed, s1 = one_server_federation(preflight=True)
        before = fed.network.messages
        answer = s1.service.execute(GOOD_JOIN)
        assert answer.rows  # run 0 events paired with cms
        assert answer.distributed
        assert fed.network.messages >= before  # and nothing was blocked

    def test_preflight_matches_no_preflight_on_good_queries(self):
        sql = (
            "SELECT COUNT(*) FROM events e "
            "INNER JOIN runs r ON e.run_id = r.run_id"
        )
        _, strict = one_server_federation(preflight=True)
        _, loose = one_server_federation(preflight=False)
        assert strict.service.execute(sql).rows == loose.service.execute(sql).rows

    def test_cross_server_good_query_still_works(self):
        fed, s1, _ = two_server_federation(preflight=True)
        answer = s1.service.execute(GOOD_JOIN)
        assert answer.rows
        assert answer.servers_accessed == 2


class TestMalformedNumberOverTheWire:
    """A number the lexer cannot read is a syntax error on every wire
    method, not a conversion crash."""

    SQL = "SELECT e.event_id FROM events e WHERE e.energy > 1e+"

    def test_query_raises_a_syntax_error(self):
        fed, s1 = one_server_federation(preflight=False)
        with pytest.raises(SQLSyntaxError, match="malformed number") as exc:
            fed.client("laptop").call(s1.server, "dataaccess.query", self.SQL, [])
        assert exc.value.position == self.SQL.index("1e+")

    def test_lint_reports_rpr001(self):
        fed, s1 = one_server_federation(preflight=False)
        diags = fed.client("laptop").call(s1.server, "dataaccess.lint", self.SQL)
        assert [(d["code"], d["severity"]) for d in diags] == [("RPR001", "error")]
        assert "malformed number" in diags[0]["message"]


class TestLintWireMethod:
    def test_lint_exposed_over_clarens(self):
        fed, s1 = one_server_federation(preflight=False)
        client = fed.client("laptop")
        diags = client.call(
            s1.server, "dataaccess.lint", "SELECT e.nope FROM events e"
        )
        assert any(d["code"] == "RPR102" for d in diags)
        assert all(
            set(d) == {"code", "severity", "message", "span"} for d in diags
        )

    def test_lint_clean_query_returns_empty(self):
        fed, s1 = one_server_federation(preflight=False)
        client = fed.client("laptop")
        diags = client.call(
            s1.server, "dataaccess.lint",
            "SELECT e.energy FROM events e WHERE e.run_id = 1",
        )
        assert diags == []
