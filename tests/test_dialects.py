"""Unit tests for vendor dialect personalities."""

import pytest

from repro.common import SQLType, TypeKind, UnsupportedVendorError
from repro.common.errors import ConnectionFailedError
from repro.dialects import available_vendors, get_dialect
from repro.engine import Column, Database
from repro.sql import parse_select


@pytest.fixture(params=["oracle", "mysql", "mssql", "sqlite"])
def dialect(request):
    return get_dialect(request.param)


class TestRegistry:
    def test_builtin_vendors_present(self):
        vendors = available_vendors()
        for name in ("oracle", "mysql", "mssql", "sqlite", "generic"):
            assert name in vendors

    def test_lookup_case_insensitive(self):
        assert get_dialect("Oracle").name == "oracle"

    def test_unknown_vendor_raises(self):
        with pytest.raises(UnsupportedVendorError):
            get_dialect("db2")


class TestTypeMapping:
    def test_every_kind_has_a_spelling(self, dialect):
        for kind in TypeKind:
            text = dialect.format_type(SQLType(kind, length=10, precision=10, scale=2))
            assert text

    def test_oracle_number_types(self):
        oracle = get_dialect("oracle")
        assert oracle.format_type(SQLType.integer()) == "NUMBER(10,0)"
        assert oracle.format_type(SQLType.varchar(30)) == "VARCHAR2(30)"
        assert oracle.format_type(SQLType.text()) == "CLOB"

    def test_mysql_types(self):
        mysql = get_dialect("mysql")
        assert mysql.format_type(SQLType.integer()) == "INT"
        assert mysql.format_type(SQLType.timestamp()) == "DATETIME"

    def test_sqlite_flattens_to_affinities(self):
        sqlite = get_dialect("sqlite")
        assert sqlite.format_type(SQLType.varchar(10)) == "TEXT"
        assert sqlite.format_type(SQLType.double()) == "REAL"

    def test_mssql_nvarchar(self):
        assert get_dialect("mssql").format_type(SQLType.varchar(20)) == "NVARCHAR(20)"


class TestDDLRoundTrip:
    def test_vendor_ddl_reparses_in_engine(self, dialect):
        """Every vendor's CREATE TABLE must be accepted by the engine."""
        columns = [
            Column("id", SQLType.integer(), primary_key=True, not_null=True),
            Column("name", SQLType.varchar(32), not_null=True),
            Column("score", SQLType.double()),
            Column("flag", SQLType.boolean()),
            Column("blob_col", SQLType(TypeKind.BLOB)),
        ]
        ddl = dialect.render_create_table("things", columns)
        db = Database("x", dialect.name)
        db.execute(ddl)
        table = db.catalog.get_table("things")
        assert table.columns[0].name == "id"
        assert [c.primary_key for c in table.columns][0] is True

    def test_default_value_preserved(self, dialect):
        columns = [Column("a", SQLType.integer(), default=7, has_default=True)]
        ddl = dialect.render_create_table("t", columns)
        db = Database("x", dialect.name)
        db.execute(ddl)
        db.execute("INSERT INTO t (a) VALUES (1)")
        assert db.catalog.get_table("t").columns[0].has_default


class TestLimitRendering:
    SELECT = "SELECT a FROM t ORDER BY a LIMIT 5"

    def test_mysql_keeps_limit(self):
        text = get_dialect("mysql").render_select(parse_select(self.SELECT))
        assert "LIMIT 5" in text

    def test_mssql_uses_top(self):
        text = get_dialect("mssql").render_select(parse_select(self.SELECT))
        assert text.startswith("SELECT TOP 5")
        assert "LIMIT" not in text

    def test_mssql_top_with_distinct(self):
        text = get_dialect("mssql").render_select(
            parse_select("SELECT DISTINCT a FROM t LIMIT 3")
        )
        assert text.startswith("SELECT DISTINCT TOP 3")

    def test_oracle_strips_limit_for_client_side(self):
        oracle = get_dialect("oracle")
        text = oracle.render_select(parse_select(self.SELECT))
        assert "LIMIT" not in text
        assert oracle.limit_applied_client_side

    def test_rendered_top_reparses(self):
        text = get_dialect("mssql").render_select(parse_select(self.SELECT))
        assert parse_select(text).limit == 5


class TestConnectionURLs:
    def test_url_round_trip(self, dialect):
        url = dialect.make_url("host.example.org", None, "mydb")
        parsed = dialect.parse_url(url)
        assert parsed.vendor == dialect.name
        assert parsed.database == "mydb"
        assert parsed.host in url

    def test_oracle_thin_format(self):
        url = get_dialect("oracle").make_url("db.cern.ch", 1521, "lhc")
        assert url == "jdbc:oracle:thin:@db.cern.ch:1521/lhc"

    def test_mssql_semicolon_format(self):
        url = get_dialect("mssql").make_url("win2k", None, "mart")
        assert url == "jdbc:sqlserver://win2k:1433;databaseName=mart"

    def test_sqlite_file_format(self):
        url = get_dialect("sqlite").make_url("laptop", None, "local")
        assert url == "jdbc:sqlite:/laptop/local.db"

    def test_wrong_scheme_rejected(self):
        with pytest.raises(ConnectionFailedError):
            get_dialect("mysql").parse_url("jdbc:oracle:thin:@h:1521/x")

    def test_bad_port_rejected(self):
        with pytest.raises(ConnectionFailedError):
            get_dialect("mysql").parse_url("jdbc:mysql://h:notaport/db")

    def test_missing_database_rejected(self):
        with pytest.raises(ConnectionFailedError):
            get_dialect("mysql").parse_url("jdbc:mysql://hostonly")


class TestPoolSupportMatrix:
    def test_paper_support_matrix(self):
        assert get_dialect("oracle").pool_supported
        assert get_dialect("mysql").pool_supported
        assert get_dialect("sqlite").pool_supported
        assert not get_dialect("mssql").pool_supported


class TestQuoting:
    def test_quote_styles(self):
        assert get_dialect("mysql").quote_ident("x") == "`x`"
        assert get_dialect("mssql").quote_ident("x") == "[x]"
        assert get_dialect("oracle").quote_ident("x") == '"x"'
