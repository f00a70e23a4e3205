"""Integration: static analysis inside the federated service.

The point of static checking in the paper's architecture is to find a
bad query *before* any sub-query ships over the WAN — so the key
assertion here is on the network counters, not just the findings.
"""

import pytest

from repro.common import ReproError, SQLSyntaxError
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


def one_server_federation():
    """Both marts (two vendors) attached to a single JClarens server."""
    fed = GridFederation()
    s1 = fed.create_server("jc1", "pc1")
    mysql, mssql = make_marts()
    fed.attach_database(s1, mysql, logical_names={"EVT": "events"})
    fed.attach_database(s1, mssql, logical_names={"RUN_INFO": "runs"})
    return fed, s1


def two_server_federation():
    """One mart per server; `runs` is remote from jc1's point of view."""
    fed = GridFederation()
    s1 = fed.create_server("jc1", "pc1")
    s2 = fed.create_server("jc2", "pc2")
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


def _errors(diags):
    return [d for d in diags if d["severity"] == "error"]


class TestLintBeforeExecution:
    def test_bad_queries_lint_as_errors_without_network_traffic(self):
        # what lint calls an ERROR the service refuses too, but lint
        # says so without moving a byte
        fed, s1 = one_server_federation()
        for sql in BAD_QUERIES:
            before_msgs = fed.network.messages
            before_bytes = fed.network.bytes_moved
            assert _errors(s1.service.lint(sql)), sql
            assert fed.network.messages == before_msgs, sql
            assert fed.network.bytes_moved == before_bytes, sql
            with pytest.raises(ReproError):
                s1.service.execute(sql)

    @pytest.mark.parametrize("sql", [
        "SELECT event_id FROM events UNION SELECT event_id FROM events",
        "INSERT INTO events VALUES (1, 2, 3.0)",
        "CREATE VIEW v AS SELECT event_id FROM events",
    ])
    def test_text_query_refuses_at_parse_is_one_syntax_error(self, sql):
        # lint answers for the method it stands in front of: query takes
        # one SELECT, so anything else is RPR001 with query's own message
        # (a UNION stops the SELECT's parse as trailing input)
        fed, s1, _ = two_server_federation()
        with pytest.raises(SQLSyntaxError) as refused:
            s1.service.execute(sql)
        diags = fed.client("laptop").call(s1.server, "dataaccess.lint", sql)
        assert [(d["code"], d["severity"]) for d in diags] == [("RPR001", "error")]
        assert diags[0]["message"] == str(refused.value)
        if not sql.startswith("SELECT"):
            assert "expected a SELECT statement" in diags[0]["message"]

    def test_good_join_lints_clean_and_executes(self):
        fed, s1 = one_server_federation()
        assert _errors(s1.service.lint(GOOD_JOIN)) == []
        answer = s1.service.execute(GOOD_JOIN)
        assert answer.rows  # run 0 events paired with cms
        assert answer.distributed

    def test_cross_server_good_join_lints_clean_once_discovered(self):
        fed, s1, _ = two_server_federation()
        answer = s1.service.execute(GOOD_JOIN)
        assert answer.rows
        assert answer.servers_accessed == 2
        assert _errors(s1.service.lint(GOOD_JOIN)) == []


class TestMalformedNumberOverTheWire:
    """A number the lexer cannot read is a syntax error on every wire
    method, not a conversion crash."""

    SQL = "SELECT e.event_id FROM events e WHERE e.energy > 1e+"

    def test_query_raises_a_syntax_error(self):
        fed, s1 = one_server_federation()
        with pytest.raises(SQLSyntaxError, match="malformed number") as exc:
            fed.client("laptop").call(s1.server, "dataaccess.query", self.SQL, [])
        assert exc.value.position == self.SQL.index("1e+")

    def test_lint_reports_rpr001(self):
        fed, s1 = one_server_federation()
        diags = fed.client("laptop").call(s1.server, "dataaccess.lint", self.SQL)
        assert [(d["code"], d["severity"]) for d in diags] == [("RPR001", "error")]
        assert "malformed number" in diags[0]["message"]


class TestLintWireMethod:
    def test_lint_exposed_over_clarens(self):
        fed, s1 = one_server_federation()
        client = fed.client("laptop")
        diags = client.call(
            s1.server, "dataaccess.lint", "SELECT e.nope FROM events e"
        )
        assert any(d["code"] == "RPR102" for d in diags)
        assert all(
            set(d) == {"code", "severity", "message", "span"} for d in diags
        )

    def test_lint_clean_query_returns_empty(self):
        fed, s1 = one_server_federation()
        client = fed.client("laptop")
        diags = client.call(
            s1.server, "dataaccess.lint",
            "SELECT e.energy FROM events e WHERE e.run_id = 1",
        )
        assert diags == []
