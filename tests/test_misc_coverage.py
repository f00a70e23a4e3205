"""Coverage for helper surfaces: federation topology, merge utilities,
auth-less servers, result helpers and statement edge paths."""

import pytest

from repro.common import ColumnNotFoundError
from repro.core import GridFederation
from repro.engine import Database
from repro.net import Network, SimClock


class TestFederationHelpers:
    @pytest.fixture
    def fed(self):
        federation = GridFederation()
        federation.create_server("alpha", "hostA")
        federation.create_server("beta", "hostB")
        return federation

    def test_servers_sorted(self, fed):
        assert [s.name for s in fed.servers()] == ["alpha", "beta"]

    def test_add_host_idempotent(self, fed):
        fed.add_host("hostA")
        fed.add_host("hostA")
        assert fed.network.has_host("hostA")

    def test_client_cached_per_host_and_user(self, fed):
        a = fed.client("laptop")
        b = fed.client("laptop")
        c = fed.client("laptop", user="other", password="x")
        assert a is b and a is not c

    def test_attach_builds_vendor_url(self, fed):
        db = Database("mart_x", "sqlite")
        db.execute("CREATE TABLE t (a INTEGER)")
        alpha = fed.servers()[0]
        url = fed.attach_database(alpha, db, db_host="hostA")
        assert url == "jdbc:sqlite:/hostA/mart_x.db"

    def test_service_url_resolution(self, fed):
        handle = fed.servers()[0]
        assert handle.name == "alpha"
        resolved = fed._resolve_server(handle.service.service_url)
        assert resolved is handle.server
        assert fed._resolve_server("clarens://ghost/none") is None


class TestResultHelpers:
    def test_result_vector_is_lists(self):
        from repro.engine.database import ExecResult

        result = ExecResult(columns=["a"], types=[], rows=[(1,), (2,)])
        assert result.to_vector() == [[1], [2]]

    def test_exec_result_to_dicts(self):
        db = Database("x", "mysql")
        db.execute("CREATE TABLE t (a INT, b VARCHAR(4))")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        result = db.execute("SELECT * FROM t")
        assert (result.columns, result.rows) == (["a", "b"], [(1, "x")])

    def test_query_answer_column_index(self):
        from repro.core import QueryAnswer

        answer = QueryAnswer(
            columns=["A", "b"], types=[], rows=[], distributed=False,
            databases=(), servers_accessed=1, tables_accessed=1,
        )
        assert answer.column_index("a") == 0
        with pytest.raises(ColumnNotFoundError):
            answer.column_index("zzz")

    def test_cursor_close_clears_result(self):
        from repro.driver import Directory, connect
        from repro.dialects import get_dialect

        directory = Directory()
        db = Database("m", "mysql")
        db.execute("CREATE TABLE t (a INT)")
        url = get_dialect("mysql").make_url("h", None, "m")
        directory.register(url, db)
        cursor = connect(url, directory=directory).cursor()
        cursor.execute("SELECT * FROM t")
        cursor.close()
        assert cursor.description is None


class TestStatementEdgePaths:
    def test_semicolon_terminated_statement(self):
        db = Database("x", "mysql")
        db.execute("CREATE TABLE t (a INT);")
        db.execute("INSERT INTO t VALUES (1);")
        assert db.execute("SELECT COUNT(*) FROM t;").rows == [(1,)]

    def test_comments_inside_statements(self):
        db = Database("x", "mysql")
        db.execute("CREATE TABLE t (a INT) -- trailing comment")
        db.execute("INSERT INTO t VALUES (1) /* block */")
        assert db.execute("SELECT /* hint */ a FROM t").rows == [(1,)]

    def test_quoted_identifiers_execute(self):
        db = Database("x", "mssql")
        db.execute('CREATE TABLE [weird name] ("col one" INT)')
        db.execute('INSERT INTO [weird name] ("col one") VALUES (7)')
        assert db.execute('SELECT "col one" FROM [weird name]').rows == [(7,)]

    def test_empty_table_aggregates_via_view(self):
        db = Database("x", "mysql")
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE VIEW v AS SELECT COUNT(*) AS n FROM t")
        assert db.execute("SELECT n FROM v").rows == [(0,)]

    def test_network_counters_accumulate(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        clock = SimClock()
        net.transfer("a", "b", 100, clock)
        net.transfer("b", "a", 50, clock)
        assert net.bytes_moved == 150
        assert net.messages == 2
