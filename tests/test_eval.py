"""Unit tests for expression compilation and three-valued logic."""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ColumnNotFoundError, SQLType, SQLTypeError
from repro.engine import Database
from repro.sql import ast, parse_expression
from repro.sql.eval import RowSchema, SchemaColumn, _and3, _cmp, compile_expr, truthy


@pytest.fixture
def schema():
    return RowSchema(
        [
            SchemaColumn("t", "a", SQLType.integer()),
            SchemaColumn("t", "b", SQLType.double()),
            SchemaColumn("t", "name", SQLType.varchar(20)),
            SchemaColumn("u", "a", SQLType.integer()),
        ]
    )


def ev(text, schema, row, params=()):
    return compile_expr(parse_expression(text), schema, params)(row)


class TestResolution:
    def test_qualified_lookup(self, schema):
        assert ev("t.a", schema, (1, 2.0, "x", 9)) == 1
        assert ev("u.a", schema, (1, 2.0, "x", 9)) == 9

    def test_unqualified_unique_lookup(self, schema):
        assert ev("name", schema, (1, 2.0, "x", 9)) == "x"

    def test_unqualified_ambiguous_raises(self, schema):
        with pytest.raises(ColumnNotFoundError):
            ev("a", schema, (1, 2.0, "x", 9))

    def test_case_insensitive(self, schema):
        assert ev("T.A", schema, (5, 0.0, "", 0)) == 5

    def test_missing_column_raises(self, schema):
        with pytest.raises(ColumnNotFoundError):
            ev("t.zzz", schema, (1, 2.0, "x", 9))

    def test_star_indexes(self, schema):
        assert schema.indexes_for_star(None) == [0, 1, 2, 3]
        assert schema.indexes_for_star("u") == [3]
        with pytest.raises(ColumnNotFoundError):
            schema.indexes_for_star("zzz")


class TestArithmetic:
    def test_basic_ops(self, schema):
        row = (6, 4.0, "x", 2)
        assert ev("t.a + t.b", schema, row) == 10.0
        assert ev("t.a - u.a", schema, row) == 4
        assert ev("t.a * 2", schema, row) == 12
        assert ev("t.a % u.a", schema, row) == 0

    def test_integer_division_stays_int_when_exact(self, schema):
        assert ev("t.a / 2", schema, (6, 0.0, "", 0)) == 3
        assert isinstance(ev("t.a / 2", schema, (6, 0.0, "", 0)), int)

    def test_inexact_division_is_float(self, schema):
        assert ev("t.a / 4", schema, (6, 0.0, "", 0)) == 1.5

    def test_division_by_zero_is_null(self, schema):
        assert ev("t.a / 0", schema, (6, 0.0, "", 0)) is None

    def test_null_propagates(self, schema):
        assert ev("t.a + 1", schema, (None, 0.0, "", 0)) is None

    def test_string_arith_raises(self, schema):
        with pytest.raises(SQLTypeError):
            ev("name + 1", schema, (0, 0.0, "abc", 0))

    def test_concat(self, schema):
        assert ev("name || '!'", schema, (0, 0.0, "hi", 0)) == "hi!"

    def test_unary_minus(self, schema):
        assert ev("-t.b", schema, (0, 2.5, "", 0)) == -2.5


class TestThreeValuedLogic:
    def test_and_truth_table(self, schema):
        row = (None, 0.0, "", 0)
        # NULL AND FALSE = FALSE; NULL AND TRUE = NULL
        assert ev("t.a = 1 AND 1 = 2", schema, row) is False
        assert ev("t.a = 1 AND 1 = 1", schema, row) is None

    def test_or_truth_table(self, schema):
        row = (None, 0.0, "", 0)
        assert ev("t.a = 1 OR 1 = 1", schema, row) is True
        assert ev("t.a = 1 OR 1 = 2", schema, row) is None

    def test_not_null_is_null(self, schema):
        assert ev("NOT t.a = 1", schema, (None, 0.0, "", 0)) is None

    def test_comparison_with_null_is_unknown(self, schema):
        assert ev("t.a = 1", schema, (None, 0.0, "", 0)) is None
        assert ev("t.a <> 1", schema, (None, 0.0, "", 0)) is None

    def test_is_null(self, schema):
        assert ev("t.a IS NULL", schema, (None, 0.0, "", 0)) is True
        assert ev("t.a IS NOT NULL", schema, (None, 0.0, "", 0)) is False

    def test_truthy_only_true(self):
        assert truthy(True)
        assert not truthy(None)
        assert not truthy(False)


class TestPredicates:
    def test_in_list(self, schema):
        assert ev("t.a IN (1, 2, 3)", schema, (2, 0.0, "", 0)) is True
        assert ev("t.a IN (1, 2, 3)", schema, (9, 0.0, "", 0)) is False

    def test_in_list_with_null_member_unknown_on_miss(self, schema):
        assert ev("t.a IN (1, NULL)", schema, (9, 0.0, "", 0)) is None
        assert ev("t.a IN (9, NULL)", schema, (9, 0.0, "", 0)) is True

    def test_not_in(self, schema):
        assert ev("t.a NOT IN (1, 2)", schema, (9, 0.0, "", 0)) is True

    def test_between(self, schema):
        assert ev("t.a BETWEEN 1 AND 5", schema, (3, 0.0, "", 0)) is True
        assert ev("t.a BETWEEN 1 AND 5", schema, (7, 0.0, "", 0)) is False
        assert ev("t.a NOT BETWEEN 1 AND 5", schema, (7, 0.0, "", 0)) is True

    def test_like_percent(self, schema):
        assert ev("name LIKE 'ab%'", schema, (0, 0.0, "abcdef", 0)) is True
        assert ev("name LIKE 'ab%'", schema, (0, 0.0, "xabc", 0)) is False

    def test_like_underscore(self, schema):
        assert ev("name LIKE 'a_c'", schema, (0, 0.0, "abc", 0)) is True
        assert ev("name LIKE 'a_c'", schema, (0, 0.0, "abbc", 0)) is False

    def test_like_escapes_regex_chars(self, schema):
        assert ev("name LIKE 'a.c'", schema, (0, 0.0, "a.c", 0)) is True
        assert ev("name LIKE 'a.c'", schema, (0, 0.0, "abc", 0)) is False

    def test_like_null_operand(self, schema):
        assert ev("name LIKE 'a%'", schema, (0, 0.0, None, 0)) is None


class TestLikeAgainstSqlite:
    """LIKE matches the whole string, ``%`` and ``_`` spanning newlines,
    case-insensitively for ASCII — as stdlib ``sqlite3`` does."""

    ROWS = [
        (1, "abc\n", "abc"),
        (2, "x\ny", "x%"),
        (3, "a\nb", "a_b"),
        (4, "abc", "abc"),
        (5, "ABC", "abc"),
        (6, "abcd", "abc"),
        (7, "\n", "_"),
        (8, "\n\n", "%"),
        (9, "a\n", "a_"),
        (10, "xy", "x%"),
    ]

    @pytest.fixture(scope="class")
    def engines(self):
        ddl = "CREATE TABLE t (id INT PRIMARY KEY, s VARCHAR(8), p VARCHAR(8))"
        db = Database("like", "generic")
        db.execute(ddl)
        db.catalog.get_table("t").append_rows([list(r) for r in self.ROWS])
        conn = sqlite3.connect(":memory:")
        conn.execute(ddl)
        conn.executemany("INSERT INTO t VALUES (?, ?, ?)", self.ROWS)
        yield db, conn
        conn.close()

    @staticmethod
    def both(engines, sql):
        db, conn = engines
        return db.execute(sql).rows, conn.execute(sql).fetchall()

    @pytest.mark.parametrize("pattern", sorted({p for _, _, p in ROWS}))
    @pytest.mark.parametrize("op", ["LIKE", "NOT LIKE"])
    def test_literal_pattern(self, engines, pattern, op):
        ours, sqlite = self.both(
            engines, f"SELECT id FROM t WHERE s {op} '{pattern}' ORDER BY id"
        )
        assert ours == sqlite

    @pytest.mark.parametrize("op", ["LIKE", "NOT LIKE"])
    def test_column_pattern(self, engines, op):
        ours, sqlite = self.both(engines, f"SELECT id FROM t WHERE s {op} p ORDER BY id")
        assert ours == sqlite


class TestFunctionsAndCase:
    def test_case(self, schema):
        text = "CASE WHEN t.a > 0 THEN 'pos' WHEN t.a < 0 THEN 'neg' ELSE 'zero' END"
        assert ev(text, schema, (3, 0.0, "", 0)) == "pos"
        assert ev(text, schema, (-3, 0.0, "", 0)) == "neg"
        assert ev(text, schema, (0, 0.0, "", 0)) == "zero"

    def test_case_no_else_yields_null(self, schema):
        assert ev("CASE WHEN t.a > 0 THEN 1 END", schema, (-1, 0.0, "", 0)) is None

    def test_cast(self, schema):
        assert ev("CAST(t.b AS INTEGER)", schema, (0, 7.9, "", 0)) == 7

    def test_scalar_functions(self, schema):
        row = (0, -2.5, "MiXeD", 0)
        assert ev("ABS(t.b)", schema, row) == 2.5
        assert ev("LOWER(name)", schema, row) == "mixed"
        assert ev("UPPER(name)", schema, row) == "MIXED"
        assert ev("LENGTH(name)", schema, row) == 5

    def test_coalesce(self, schema):
        assert ev("COALESCE(t.a, 42)", schema, (None, 0.0, "", 0)) == 42
        assert ev("COALESCE(t.a, 42)", schema, (7, 0.0, "", 0)) == 7

    def test_substr(self, schema):
        assert ev("SUBSTR(name, 2, 3)", schema, (0, 0.0, "abcdef", 0)) == "bcd"

    def test_unknown_function_raises(self, schema):
        with pytest.raises(SQLTypeError):
            ev("FROBNICATE(t.a)", schema, (1, 0.0, "", 0))

    def test_aggregate_outside_select_raises(self, schema):
        with pytest.raises(SQLTypeError):
            ev("SUM(t.a)", schema, (1, 0.0, "", 0))


class TestParams:
    def test_param_binding(self, schema):
        assert ev("t.a = ?", schema, (5, 0.0, "", 0), params=(5,)) is True

    def test_missing_param_raises(self, schema):
        with pytest.raises(SQLTypeError):
            ev("t.a = ?", schema, (5, 0.0, "", 0), params=())


class _Text(str):
    pass


_operands = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "a", "b", _Text("a")]),
)


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except SQLTypeError as exc:
        return ("error", str(exc))


class TestComparisonClosures:
    """Each operator's closure equals the generic ``_cmp`` on every pair:
    the exact-type fast path must not change a value, a NULL or an error."""

    _schema = RowSchema([SchemaColumn(None, "x", SQLType.text()),
                         SchemaColumn(None, "y", SQLType.text())])

    @settings(max_examples=300)
    @given(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), _operands, _operands)
    def test_matches_cmp(self, op, a, b):
        expected = _outcome(_cmp, op, a, b)
        row = (a, b)
        for expr in (
            ast.BinaryOp(op, ast.ColumnRef("x"), ast.ColumnRef("y")),
            ast.BinaryOp(op, ast.ColumnRef("x"), ast.Literal(b)),
            ast.BinaryOp(op, ast.ColumnRef("x"), ast.Param(0)),
            ast.BinaryOp(op, ast.Literal(a), ast.ColumnRef("y")),
        ):
            got = _outcome(compile_expr(expr, self._schema, (b,)), row)
            assert got == expected, (expr, got, expected)

    @settings(max_examples=300)
    @given(_operands, _operands, _operands, st.booleans())
    def test_between_matches_cmp(self, v, lo, hi, negated):
        def reference():
            result = _and3(_cmp(">=", v, lo), _cmp("<=", v, hi))
            return None if result is None else result != negated

        schema = RowSchema([SchemaColumn(None, c, SQLType.text()) for c in "vlh"])
        expr = ast.Between(ast.ColumnRef("v"), ast.ColumnRef("l"), ast.ColumnRef("h"), negated)
        assert _outcome(compile_expr(expr, schema), (v, lo, hi)) == _outcome(reference)
