"""Property-based tests (hypothesis) for the SQL layer."""

import math

from hypothesis import example, given, settings, strategies as st

from repro.common import SQLType, TypeKind, coerce_value, common_supertype, sql_repr
from repro.common.errors import SQLTypeError
from repro.dialects import get_dialect
from repro.engine import Database
from repro.sql import ast, parse_expression, parse_statement, tokenize
from repro.sql.parser import parse_select


# -- value strategies -------------------------------------------------------------

sql_ints = st.integers(min_value=-(2**40), max_value=2**40)
sql_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
sql_strings = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=30
)
sql_scalars = st.one_of(st.none(), st.booleans(), sql_ints, sql_floats, sql_strings)


class TestLiteralRoundTrip:
    @given(sql_ints)
    def test_int_literal_round_trip(self, value):
        expr = parse_expression(sql_repr(value))
        assert isinstance(expr, ast.Literal)
        assert expr.value == value

    @given(sql_floats)
    def test_float_literal_round_trip(self, value):
        expr = parse_expression(sql_repr(value))
        assert isinstance(expr, ast.Literal)
        assert math.isclose(float(expr.value), value, rel_tol=0, abs_tol=0) or (
            expr.value == value
        )

    @given(sql_strings)
    def test_string_literal_round_trip(self, value):
        expr = parse_expression(sql_repr(value))
        assert isinstance(expr, ast.Literal)
        assert expr.value == value

    @given(st.booleans())
    def test_bool_literal_round_trip(self, value):
        assert parse_expression(sql_repr(value)).value is value

    def test_null_round_trip(self):
        assert parse_expression(sql_repr(None)).value is None


# -- expression AST round trip ----------------------------------------------------------

_idents = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s.upper() not in __import__("repro.sql.lexer", fromlist=["KEYWORDS"]).KEYWORDS
)


def _exprs():
    leaves = st.one_of(
        sql_ints.map(ast.Literal),
        sql_strings.map(ast.Literal),
        st.booleans().map(ast.Literal),
        st.just(ast.Literal(None)),
        _idents.map(lambda c: ast.ColumnRef(column=c)),
        st.tuples(_idents, _idents).map(
            lambda t: ast.ColumnRef(column=t[1], table=t[0])
        ),
    )

    def extend(children):
        binary = st.tuples(
            st.sampled_from(["+", "-", "*", "/", "AND", "OR", "=", "<", ">=", "||"]),
            children,
            children,
        ).map(lambda t: ast.BinaryOp(*t))
        unary = children.map(lambda e: ast.UnaryOp("NOT", e))
        isnull = st.tuples(children, st.booleans()).map(
            lambda t: ast.IsNull(t[0], t[1])
        )
        inlist = st.tuples(children, st.lists(children, min_size=1, max_size=3)).map(
            lambda t: ast.InList(t[0], tuple(t[1]))
        )
        between = st.tuples(children, children, children).map(
            lambda t: ast.Between(*t)
        )
        func = st.tuples(
            st.sampled_from(["ABS", "LOWER", "UPPER", "LENGTH", "COALESCE"]),
            st.lists(children, min_size=1, max_size=2),
        ).map(lambda t: ast.FunctionCall(t[0], tuple(t[1])))
        return st.one_of(binary, unary, isnull, inlist, between, func)

    return st.recursive(leaves, extend, max_leaves=12)


class TestExpressionRoundTrip:
    @given(_exprs())
    @settings(max_examples=150)
    def test_unparse_parse_fixed_point(self, expr):
        """parse(unparse(e)) unparsed again must be byte-identical."""
        text = expr.unparse()
        reparsed = parse_expression(text)
        assert reparsed.unparse() == text

    @given(_exprs())
    @settings(max_examples=80)
    def test_unparse_tokenizes(self, expr):
        tokenize(expr.unparse())


# -- statement round trip --------------------------------------------------------------------


def _selects():
    tables = st.lists(_idents, min_size=1, max_size=3, unique=True)

    def build(names):
        items = tuple(
            ast.SelectItem(ast.ColumnRef(column=f"c{i}"), alias=None)
            for i in range(len(names))
        )
        from_ = tuple(ast.TableRef(name=n) for n in names)
        return ast.Select(items=items, from_=from_)

    return tables.map(build)


class TestStatementRoundTrip:
    @given(_selects())
    def test_select_round_trip(self, select):
        text = select.unparse()
        assert parse_statement(text).unparse() == text


# -- vendor rendering round trip --------------------------------------------------------------

_VENDORS = ("mysql", "mssql", "oracle", "sqlite")
_T_COLUMNS = ("a", "b", "c")


def _col(name: str) -> ast.ColumnRef:
    return ast.ColumnRef(column=name)


def _nested_in(bound: int) -> ast.InSubquery:
    """``a IN (SELECT a FROM t WHERE a >= bound ORDER BY a LIMIT 1)``."""
    return ast.InSubquery(
        _col("a"),
        ast.Select(
            items=(ast.SelectItem(_col("a")),),
            from_=(ast.TableRef("t"),),
            where=ast.BinaryOp(">=", _col("a"), ast.Literal(bound)),
            order_by=(ast.OrderItem(_col("a")),),
            limit=1,
        ),
    )


@st.composite
def _vendor_selects(draw):
    """SELECTs over ``t(a, b, c)`` exercising every limit spelling:
    DISTINCT, WHERE (with a nested ``IN (SELECT … LIMIT 1)``), ORDER
    BY, LIMIT and OFFSET."""
    names = draw(st.lists(st.sampled_from(_T_COLUMNS), min_size=1, max_size=3, unique=True))
    compare = st.builds(
        ast.BinaryOp,
        st.sampled_from(["=", "<", "<=", ">", ">=", "<>"]),
        st.sampled_from(("a", "b")).map(_col),
        st.integers(-2, 11).map(ast.Literal),
    )
    terms = draw(st.lists(st.one_of(compare, st.integers(0, 9).map(_nested_in)), max_size=3))
    order = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
    return ast.Select(
        items=tuple(ast.SelectItem(_col(n)) for n in names),
        from_=(ast.TableRef("t"),),
        where=ast.conjoin(terms),
        order_by=tuple(ast.OrderItem(_col(n), draw(st.booleans())) for n in order),
        limit=draw(st.none() | st.integers(0, 6)),
        offset=draw(st.none() | st.integers(0, 3)),
        distinct=draw(st.booleans()),
    )


def _populated_mart(vendor: str) -> Database:
    db = Database(f"mart_{vendor}", vendor)
    db.execute("CREATE TABLE t (a INT, b DOUBLE, c VARCHAR(8))")
    for i in range(12):
        b = "NULL" if i % 5 == 0 else str(i * 0.5)
        c = "NULL" if i % 4 == 0 else f"'v{i % 3}'"
        db.execute(f"INSERT INTO t VALUES ({i % 9}, {b}, {c})")
    return db


_MARTS = {vendor: _populated_mart(vendor) for vendor in _VENDORS}


class TestVendorRenderingRoundTrip:
    """``render_select`` is :meth:`Dialect.vendor_select`'s statement in
    the vendor's spelling: parsing the text gives that statement back,
    and a mart running either gives the same result."""

    @given(_vendor_selects())
    @settings(max_examples=120, deadline=None)
    def test_rendered_text_parses_to_the_vendor_statement(self, select):
        for vendor in _VENDORS:
            dialect = get_dialect(vendor)
            text = dialect.render_select(select)
            expected = dialect.vendor_select(select).unparse()
            assert parse_select(text).unparse() == expected, vendor

    @given(_vendor_selects())
    @settings(max_examples=80, deadline=None)
    def test_text_and_statement_run_alike(self, select):
        for vendor, db in _MARTS.items():
            dialect = get_dialect(vendor)
            by_text = db.execute(dialect.render_select(select))
            by_statement = db.execute_statement(dialect.vendor_select(select))
            assert by_text.columns == by_statement.columns, vendor
            assert by_text.types == by_statement.types, vendor
            assert by_text.rows == by_statement.rows, vendor

    def test_client_vendor_drops_only_the_top_level_limit(self):
        select = parse_select("SELECT a FROM t ORDER BY a LIMIT 3 OFFSET 1")
        assert get_dialect("oracle").vendor_select(select).limit is None
        assert get_dialect("oracle").vendor_select(select).offset == 1
        for vendor in ("mysql", "mssql", "sqlite"):
            assert get_dialect(vendor).vendor_select(select) is select

    def test_nested_limit_keeps_the_limit_spelling(self):
        """Known gap, pinned: only the top-level LIMIT is rewritten, so a
        nested ``IN (SELECT … LIMIT 1)`` ships as LIMIT to MSSQL and
        Oracle marts."""
        select = parse_select(
            "SELECT a FROM t WHERE a IN (SELECT a FROM t ORDER BY a LIMIT 1) LIMIT 2"
        )
        nested = "WHERE (a IN (SELECT a FROM t ORDER BY a ASC LIMIT 1))"
        assert get_dialect("mssql").render_select(select) == (
            f"SELECT TOP 2 a FROM t {nested}"
        )
        assert get_dialect("oracle").render_select(select) == f"SELECT a FROM t {nested}"


class TestParamOrder:
    def test_text_order_matches_the_parsers_numbering(self):
        """Every clause that can hold a ``?``, subqueries included: the
        parser numbers ``?`` in text order, and ``param_order`` reads
        them back in the same order."""
        select = parse_select(
            "SELECT a + ?, b FROM t JOIN u ON t.a = u.a + ? "
            "WHERE b > ? AND a IN (SELECT a FROM u WHERE a < ?) "
            "AND EXISTS (SELECT a FROM u WHERE a = ?) "
            "GROUP BY a, b + ? HAVING COUNT(*) > ? ORDER BY a + ?"
        )
        assert select.param_order() == tuple(range(8))
        assert parse_select(select.unparse()).param_order() == tuple(range(8))

    def test_a_cut_keeps_the_client_indexes(self):
        where = parse_select("SELECT a FROM t WHERE a < ? AND b > ?").where
        cut = ast.Select(
            items=(ast.SelectItem(_col("b")),),
            from_=(ast.TableRef("t"),),
            where=ast.conjuncts(where)[1],
        )
        assert cut.param_order() == (1,)


# -- type system properties ------------------------------------------------------------------

_types = st.sampled_from(
    [
        SQLType.integer(),
        SQLType.bigint(),
        SQLType.double(),
        SQLType(TypeKind.FLOAT),
        SQLType.decimal(10, 2),
        SQLType.varchar(64),
        SQLType.text(),
        SQLType.boolean(),
        SQLType.timestamp(),
    ]
)


class TestTypeProperties:
    @given(_types, _types)
    def test_supertype_commutative(self, a, b):
        try:
            ab = common_supertype(a, b)
        except SQLTypeError:
            try:
                common_supertype(b, a)
                raise AssertionError("asymmetric supertype failure")
            except SQLTypeError:
                return
        assert ab.kind == common_supertype(b, a).kind

    @given(_types)
    def test_supertype_idempotent(self, t):
        assert common_supertype(t, t).kind == t.kind

    @given(sql_scalars, _types)
    @example("NAN", SQLType.double())
    def test_coerce_idempotent(self, value, target):
        try:
            once = coerce_value(value, target)
        except SQLTypeError:
            return
        assert coerce_value(once, target) == once

    @given(sql_scalars)
    def test_null_coerces_everywhere(self, _):
        for t in (SQLType.integer(), SQLType.text(), SQLType.boolean()):
            assert coerce_value(None, t) is None
