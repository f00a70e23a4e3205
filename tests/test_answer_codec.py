"""One answer type on every route, and one codec for its wire form.

The local service call, the web (``fed.query``) route and a peer's
forwarded sub-query must agree on the answer — types included — and
engine results and federated answers share one set of row helpers.
"""

import pytest

from repro.common import ColumnNotFoundError, SQLType, XSpecError
from repro.common.rng import DeterministicRNG
from repro.core import GridFederation, QueryAnswer
from repro.driver import Directory, connect
from repro.dialects import get_dialect
from repro.engine import Database, ExecResult
from repro.hep.testbed import _make_ntuple_db
from repro.metadata.xspec import parse_type_text
from repro.net import SimClock
from repro.net.network import WAN
from repro.sql import ast
from repro.sql.parser import parse_select
from repro.tools.demo import two_server_federation

LOCAL_SQL = "SELECT event_id, energy, tag FROM events WHERE energy > 3 ORDER BY event_id"
JOIN_SQL = (
    "SELECT e.event_id, e.energy, r.detector FROM events e "
    "JOIN runs r ON e.run_id = r.run_id ORDER BY e.event_id"
)


def _shape(answer):
    return (
        answer.columns, answer.types, answer.rows, answer.distributed, answer.routes
    )


class TestEveryRouteSameAnswer:
    def test_local_web_and_forwarded_agree(self):
        fed, a, b, _, _ = two_server_federation()
        local = a.service.execute(LOCAL_SQL)
        web = fed.query(fed.client("laptop"), a, LOCAL_SQL).answer
        assert local.types == [
            SQLType.integer(), SQLType.double(), SQLType.varchar(8)
        ]
        assert _shape(web) == _shape(local)

        # B does not hold events: it forwards the query to A over the wire
        forwarded = []
        call = b.service._peer_client.call

        def spy(server, method, *args):
            response = call(server, method, *args)
            if method == "dataaccess.query":
                forwarded.append(QueryAnswer.from_wire(response))
            return response

        b.service._peer_client.call = spy
        via_peer = b.service.execute(LOCAL_SQL)
        assert len(forwarded) == 1
        assert _shape(forwarded[0]) == _shape(local)
        assert (via_peer.columns, via_peer.types, via_peer.rows) == (
            local.columns, local.types, local.rows
        )
        assert via_peer.routes == ["remote"]

    def test_distributed_join_local_and_web_agree(self):
        fed, a, _, _, _ = two_server_federation()
        local = a.service.execute(JOIN_SQL)
        web = fed.query(fed.client("laptop"), a, JOIN_SQL).answer
        assert local.distributed and local.routes == ["pool", "remote"]
        assert _shape(web) == _shape(local)
        assert (web.servers_accessed, web.tables_accessed) == (2, 2)


class TestWireCodec:
    def test_round_trip_keeps_wire_fields(self):
        fed, a, _, _, _ = two_server_federation()
        answer = a.service.execute(JOIN_SQL)
        wire = answer.to_wire()
        assert list(wire) == [
            "columns", "types", "rows", "distributed", "servers", "tables", "routes",
        ]
        decoded = QueryAnswer.from_wire(wire)
        assert _shape(decoded) == _shape(answer)
        assert decoded.to_wire() == wire

    def test_decoded_answer_leaves_unwired_fields_empty(self):
        fed, a, _, _, _ = two_server_federation()
        decoded = QueryAnswer.from_wire(a.service.execute(JOIN_SQL).to_wire())
        assert decoded.databases == ()
        assert decoded.traces == []
        assert decoded.profile is None

    def test_partial_keys_only_for_partial_callers(self):
        answer = QueryAnswer(
            columns=["a"], types=[SQLType.integer()], rows=[(1,)],
            distributed=False, databases=("d",), servers_accessed=1,
            tables_accessed=1, routes=["pool"],
        )
        assert "partial" not in answer.to_wire()
        wire = answer.to_wire(allow_partial=True)
        assert (wire["partial"], wire["failures"]) == (False, [])
        assert QueryAnswer.from_wire(wire).partial is False

    def test_type_parse_is_memoized_and_errors_are_not(self):
        parse_type_text.cache_clear()
        first = parse_type_text("VARCHAR(12)")
        assert parse_type_text("VARCHAR(12)") is first
        assert parse_type_text.cache_info().hits == 1
        for _ in range(2):
            with pytest.raises(XSpecError):
                parse_type_text("NOT A TYPE((")
        assert parse_type_text.cache_info().currsize == 1


class TestOneResultShape:
    def test_select_returns_exec_result_with_rowcount(self):
        db = Database("x")
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        result = db.execute("SELECT a FROM t WHERE a > 1")
        assert isinstance(result, ExecResult)
        assert result.rowcount == result.row_count == 2
        assert result.stats.rows_examined > 0

    @staticmethod
    def _shapes():
        return (
            ExecResult(columns=["a"], rows=[(1,)]),
            QueryAnswer(
                columns=["a"], types=[], rows=[(1,)], distributed=False,
                databases=(), servers_accessed=1, tables_accessed=1,
            ),
        )

    def test_missing_column_is_column_not_found_on_both(self):
        for shape in self._shapes():
            assert shape.column_index("A") == 0
            with pytest.raises(ColumnNotFoundError):
                shape.column_index("zzz")

    def test_shared_row_helpers(self):
        for shape in self._shapes():
            assert shape.row_count == 1
            assert shape.to_vector() == [[1]]


class TestExplainMatchesExecute:
    def test_explain_names_the_replica_execute_runs(self):
        fed = GridFederation()
        server = fed.create_server("jc1", "site-a", replica_selection=True)
        near = _make_ntuple_db("near_replica", DeterministicRNG("wan"), 50, 5)
        far = _make_ntuple_db("far_replica", DeterministicRNG("wan"), 50, 5)
        # the far copy registers first: dictionary order alone picks it
        fed.attach_database(
            server, far, db_host="site-b", logical_names={"NTUPLE": "events"}
        )
        fed.attach_database(
            server, near, db_host="site-a", logical_names={"NTUPLE": "events"}
        )
        fed.network.set_link("site-a", "site-b", WAN)
        sql = "SELECT event_id, e FROM events WHERE event_id <= 10"
        plan = server.service.explain(sql)
        answer = server.service.execute(sql)
        assert [t.database for t in answer.traces] == ["near_replica"]
        assert [s["database"] for s in plan["subqueries"]] == ["near_replica"]


class TestConjuncts:
    def test_splits_nested_ands_and_keeps_ors(self):
        where = parse_select(
            "SELECT a FROM t WHERE a = 1 AND (b = 2 AND c = 3) AND (d = 4 OR e = 5)"
        ).where
        assert [c.unparse() for c in ast.conjuncts(where)] == [
            "(a = 1)", "(b = 2)", "(c = 3)", "((d = 4) OR (e = 5))",
        ]

    def test_no_clause_is_no_conjuncts(self):
        assert ast.conjuncts(None) == []


class TestConnectWithoutClock:
    def test_connect_charges_a_fresh_simclock(self):
        directory = Directory()
        db = Database("m", "mysql")
        url = get_dialect("mysql").make_url("h", None, "m")
        directory.register(url, db)
        conn = connect(url, directory=directory)
        cost = get_dialect("mysql").cost
        assert isinstance(conn.clock, SimClock)
        assert conn.clock.now_ms == cost.connect_ms + cost.auth_ms
