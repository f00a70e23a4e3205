"""Unit tests for the SQL parser."""

import sqlite3

import pytest

from repro.common import SQLSyntaxError, TypeKind
from repro.engine import Database
from repro.lint import CatalogSchema, lint_sql
from repro.sql import ast, parse_expression, parse_select, parse_statement


class TestSelectBasics:
    def test_simple_select(self):
        stmt = parse_select("SELECT a, b FROM t")
        assert [i.expr.column for i in stmt.items] == ["a", "b"]
        assert stmt.from_[0].name == "t"

    def test_select_star(self):
        stmt = parse_select("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)

    def test_qualified_star(self):
        stmt = parse_select("SELECT t.* FROM t")
        assert stmt.items[0].expr == ast.Star(table="t")

    def test_alias_with_as(self):
        stmt = parse_select("SELECT a AS x FROM t")
        assert stmt.items[0].alias == "x"

    def test_alias_without_as(self):
        stmt = parse_select("SELECT a x FROM t")
        assert stmt.items[0].alias == "x"

    def test_table_alias(self):
        stmt = parse_select("SELECT e.a FROM employees e")
        assert stmt.from_[0].alias == "e"
        assert stmt.from_[0].binding == "e"

    def test_distinct(self):
        assert parse_select("SELECT DISTINCT a FROM t").distinct

    def test_where(self):
        stmt = parse_select("SELECT a FROM t WHERE a > 5")
        assert isinstance(stmt.where, ast.BinaryOp)
        assert stmt.where.op == ">"

    def test_group_by_having(self):
        stmt = parse_select(
            "SELECT dept, COUNT(*) FROM t GROUP BY dept HAVING COUNT(*) > 2"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_order_by_directions(self):
        stmt = parse_select("SELECT a FROM t ORDER BY a DESC, b ASC, c")
        assert [o.ascending for o in stmt.order_by] == [False, True, True]

    def test_limit_offset(self):
        stmt = parse_select("SELECT a FROM t LIMIT 10 OFFSET 5")
        assert stmt.limit == 10
        assert stmt.offset == 5

    def test_mssql_top_normalized_to_limit(self):
        stmt = parse_select("SELECT TOP 7 a FROM t")
        assert stmt.limit == 7

    def test_multiple_from_tables(self):
        stmt = parse_select("SELECT * FROM a, b, c")
        assert [t.name for t in stmt.from_] == ["a", "b", "c"]

    def test_scalar_select_without_from(self):
        stmt = parse_select("SELECT 1 + 1")
        assert stmt.from_ == ()


class TestJoins:
    def test_inner_join(self):
        stmt = parse_select("SELECT * FROM a JOIN b ON a.id = b.id")
        assert stmt.joins[0].kind == "INNER"

    def test_explicit_inner_join(self):
        stmt = parse_select("SELECT * FROM a INNER JOIN b ON a.id = b.id")
        assert stmt.joins[0].kind == "INNER"

    def test_left_join(self):
        stmt = parse_select("SELECT * FROM a LEFT JOIN b ON a.id = b.id")
        assert stmt.joins[0].kind == "LEFT"

    def test_left_outer_join(self):
        stmt = parse_select("SELECT * FROM a LEFT OUTER JOIN b ON a.id = b.id")
        assert stmt.joins[0].kind == "LEFT"

    def test_cross_join_has_no_on(self):
        stmt = parse_select("SELECT * FROM a CROSS JOIN b")
        assert stmt.joins[0].kind == "CROSS"
        assert stmt.joins[0].on is None

    def test_chained_joins(self):
        stmt = parse_select(
            "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y"
        )
        assert len(stmt.joins) == 2

    def test_referenced_tables_includes_joins(self):
        stmt = parse_select("SELECT * FROM a JOIN b ON a.x = b.x")
        assert [t.name for t in stmt.referenced_tables()] == ["a", "b"]


class TestExpressions:
    def test_precedence_and_over_or(self):
        expr = parse_expression("a OR b AND c")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "OR"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "AND"

    def test_precedence_mul_over_add(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parens_override(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_not_in(self):
        expr = parse_expression("x NOT IN (1, 2)")
        assert isinstance(expr, ast.InList) and expr.negated

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 10")
        assert isinstance(expr, ast.Between)

    def test_not_between(self):
        expr = parse_expression("x NOT BETWEEN 1 AND 10")
        assert expr.negated

    def test_like(self):
        expr = parse_expression("name LIKE 'a%'")
        assert isinstance(expr, ast.Like)

    def test_is_null_and_is_not_null(self):
        assert not parse_expression("x IS NULL").negated
        assert parse_expression("x IS NOT NULL").negated

    def test_case_when(self):
        expr = parse_expression("CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END")
        assert isinstance(expr, ast.Case)
        assert expr.else_ is not None

    def test_cast(self):
        expr = parse_expression("CAST(x AS BIGINT)")
        assert isinstance(expr, ast.Cast)
        assert expr.target.kind is TypeKind.BIGINT

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert isinstance(expr.args[0], ast.Star)

    def test_count_distinct(self):
        expr = parse_expression("COUNT(DISTINCT x)")
        assert expr.distinct

    def test_unary_minus_folds_literal(self):
        assert parse_expression("-5") == ast.Literal(-5)

    def test_boolean_literals(self):
        assert parse_expression("TRUE") == ast.Literal(True)
        assert parse_expression("NULL") == ast.Literal(None)

    def test_params_numbered_in_order(self):
        stmt = parse_select("SELECT a FROM t WHERE x = ? AND y = ?")
        params = [
            n for n in ast.walk(stmt.where) if isinstance(n, ast.Param)
        ]
        assert [p.index for p in params] == [0, 1]

    def test_concat_operator(self):
        expr = parse_expression("a || b")
        assert expr.op == "||"

    def test_scalar_function(self):
        expr = parse_expression("UPPER(name)")
        assert isinstance(expr, ast.FunctionCall)
        assert expr.name == "UPPER"


class TestDDL:
    def test_create_table_columns(self):
        stmt = parse_statement(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(40) NOT NULL, "
            "score DOUBLE DEFAULT 0.0)"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.columns[0].primary_key
        assert stmt.columns[1].not_null
        assert stmt.columns[2].has_default and stmt.columns[2].default == 0.0

    def test_table_level_primary_key(self):
        stmt = parse_statement("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))")
        assert stmt.columns[0].primary_key and stmt.columns[1].primary_key

    def test_vendor_type_spellings(self):
        stmt = parse_statement(
            "CREATE TABLE t (a NUMBER(10,0), b VARCHAR2(30), c DATETIME, "
            "d NVARCHAR(20), e CLOB, f DOUBLE PRECISION)"
        )
        kinds = [c.type.kind for c in stmt.columns]
        assert kinds == [
            TypeKind.DECIMAL,
            TypeKind.VARCHAR,
            TypeKind.TIMESTAMP,
            TypeKind.VARCHAR,
            TypeKind.TEXT,
            TypeKind.DOUBLE,
        ]

    def test_create_view(self):
        stmt = parse_statement("CREATE VIEW v AS SELECT a FROM t")
        assert isinstance(stmt, ast.CreateView)

    def test_alter_add_column(self):
        stmt = parse_statement("ALTER TABLE t ADD COLUMN c INT")
        assert isinstance(stmt, ast.AlterTable) and stmt.column.name == "c"


class TestDML:
    def test_insert_values(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, ast.Insert)
        assert len(stmt.rows) == 2


class TestParseErrors:
    def test_trailing_garbage(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT a FROM t extra garbage here")

    def test_missing_from_table(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT a FROM")

    def test_bad_statement_start(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("EXPLODE TABLE t")

    def test_parse_select_rejects_insert(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("INSERT INTO t VALUES (1)")

    def test_case_without_when(self):
        with pytest.raises(SQLSyntaxError):
            parse_expression("CASE END")

    def test_limit_requires_integer(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT a FROM t LIMIT 2.5")

    @pytest.mark.parametrize(
        "sql, position",
        [("SELECT a FROM t WHERE a > 1e+", 26), ("SELECT 2.5E- 3 FROM t", 7),
         ("SELECT a FROM t LIMIT 1e+", 22)],
    )
    def test_exponent_sign_without_digits(self, sql, position):
        with pytest.raises(SQLSyntaxError, match="malformed number") as exc:
            parse_statement(sql)
        assert exc.value.position == position

    @pytest.mark.parametrize("digit", ["²", "١"])
    def test_non_ascii_digit(self, digit):
        with pytest.raises(SQLSyntaxError, match="unexpected character") as exc:
            parse_statement(f"SELECT {digit} FROM t")
        assert exc.value.position == 7

    def test_integer_too_long_to_convert(self):
        digits = "9" * 5000
        try:
            stmt = parse_statement(f"SELECT {digits} FROM t")
        except SQLSyntaxError as exc:  # CPython 3.11 and 3.10.7+ cap int() at 4300 digits
            assert "malformed number" in str(exc)
            assert exc.position == 7
        else:
            assert stmt.items[0].expr == ast.Literal(int(digits))


class TestUnparseRoundTrip:
    CASES = [
        "SELECT a, b FROM t",
        "SELECT DISTINCT a FROM t WHERE (a > 5)",
        "SELECT t.a AS x FROM t AS s",
        "SELECT * FROM a INNER JOIN b ON (a.id = b.id)",
        "SELECT * FROM a LEFT JOIN b ON (a.id = b.id) WHERE (b.id IS NULL)",
        "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept HAVING (COUNT(*) > 1) "
        "ORDER BY n DESC LIMIT 3",
        "SELECT (a + (b * 2)) FROM t",
        "SELECT a FROM t WHERE (x IN (1, 2, 3))",
        "SELECT a FROM t WHERE (x NOT BETWEEN 1 AND 2)",
        "SELECT a FROM t WHERE (name LIKE 'a%')",
        "INSERT INTO t (a) VALUES (1)",
        "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(20) NOT NULL)",
    ]

    @pytest.mark.parametrize("sql", CASES)
    def test_parse_unparse_fixed_point(self, sql):
        first = parse_statement(sql)
        text = first.unparse()
        second = parse_statement(text)
        assert second.unparse() == text


class TestDroppedForms:
    """The statement forms no part of the system issues are not SQL the
    engine knows: the parser refuses them, so the engine cannot run them
    and lint reports each as one syntax error."""

    FORMS = [
        "UPDATE t SET b = 1 WHERE a = 2",
        "DELETE FROM t WHERE a = 1",
        "DELETE FROM t",
        "DROP TABLE t",
        "DROP TABLE IF EXISTS t",
        "DROP VIEW v",
        "DROP VIEW IF EXISTS v",
        "CREATE INDEX i ON t (a)",
        "CREATE UNIQUE INDEX i ON t (a, b)",
        "CREATE TABLE u AS SELECT a FROM t",
        "CREATE TABLE IF NOT EXISTS u (x INT)",
        "ALTER TABLE t DROP COLUMN b",
        "ALTER TABLE t RENAME TO u",
        "INSERT INTO t SELECT a, b FROM t",
        "INSERT INTO t (a) SELECT a FROM t",
    ]

    @pytest.mark.parametrize("sql", FORMS)
    def test_refused_by_parser_engine_and_lint(self, sql):
        with pytest.raises(SQLSyntaxError):
            parse_statement(sql)
        db = Database("forms", "generic")
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        db.execute("INSERT INTO t VALUES (1, 2)")
        db.execute("CREATE VIEW v AS SELECT a FROM t")
        with pytest.raises(SQLSyntaxError):
            db.execute(sql)
        assert db.catalog.table_names() == ["t"]
        assert db.catalog.view_names() == ["v"]
        assert db.execute("SELECT * FROM t").rows == [(1, 2)]
        report = lint_sql(sql, CatalogSchema(db))
        assert [d.code for d in report.diagnostics] == ["RPR001"]


class TestKeywordNames:
    """COLUMN, DATE and KEY are keywords that also name columns, in DDL,
    select lists and WHERE alike; IF and RENAME are not keywords; INDEX is
    never a name. The engine, lint and sqlite3 agree on each."""

    NAMES = {"column": True, "date": True, "key": True, "if": True, "rename": True,
             "index": False}

    @pytest.mark.parametrize("name", sorted(NAMES))
    def test_engine_lint_and_sqlite3_agree(self, name):
        texts = [f"CREATE TABLE t ({name} INT)", f"INSERT INTO t ({name}) VALUES (7)",
                 f"SELECT {name} FROM t", f"SELECT {name} FROM t WHERE {name} = 7"]
        lite = sqlite3.connect(":memory:")
        db = Database("names", "generic")
        for sql in texts:
            if not self.NAMES[name]:
                with pytest.raises(sqlite3.OperationalError, match="syntax error"):
                    lite.execute(sql)
                with pytest.raises(SQLSyntaxError):
                    db.execute(sql)
                codes = [d.code for d in lint_sql(sql, CatalogSchema(db)).diagnostics]
                assert codes == ["RPR001"], sql
                continue
            expected = lite.execute(sql).fetchall()
            assert "RPR001" not in [d.code for d in lint_sql(sql, CatalogSchema(db)).diagnostics]
            result = db.execute(sql)
            if sql.startswith("SELECT"):
                assert result.columns == [name]
                assert result.rows == expected == [(7,)]
