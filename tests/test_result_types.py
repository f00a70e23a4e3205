"""Result column types agree with the values they describe.

Computed select items (arithmetic, scalar functions, aggregates, CASE,
CAST) over INT/DOUBLE/VARCHAR columns holding NULLs run on one engine
``Database`` and on the federation through the pool, jdbc and remote
routes (each answer also round-trips the ``dataaccess.query`` codec).
Every declared type must describe its column's values:

* every non-NULL value lies in the type's family (numeric, text,
  boolean);
* an INTEGER or BIGINT column never holds a float.

An item built on a leaf the inferencer cannot type (``?``, a scalar
subquery) may instead keep the TEXT fallback, whatever it holds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ReproError
from repro.common.types import SQLType, TypeKind
from repro.core import GridFederation
from repro.engine import Column, Database
from repro.unity.driver import QueryAnswer

ROWS = (
    "(1, 3, 1.5, 'ab')",
    "(2, -2, NULL, 'cms')",
    "(3, NULL, -0.25, NULL)",
    "(4, 0, 2.0, ' x ')",
    "(5, 7, 10.75, 'Abc')",
)
PARAM = 2.5  # the value every ``?`` binds: a float, so an INTEGER
# type inferred over a ``?`` shows up as an integer column holding it


def _mart(name: str, vendor: str, table: str) -> Database:
    db = Database(name, vendor)
    db.execute(f"CREATE TABLE {table} (ID INT PRIMARY KEY, I INT, D DOUBLE, S VARCHAR(8))")
    db.execute(f"INSERT INTO {table} VALUES {', '.join(ROWS)}")
    return db


def _federation():
    """jc1 serves t_pool (mysql: pool route) and t_jdbc (mssql: jdbc
    route); t_remote (oracle) lives on jc2, so jc1 forwards it."""
    fed = GridFederation()
    s1 = fed.create_server("jc1", "pc1")
    s2 = fed.create_server("jc2", "pc2")
    fed.attach_database(s1, _mart("pool_mart", "mysql", "T"), "db1", {"T": "t_pool"})
    fed.attach_database(s1, _mart("jdbc_mart", "mssql", "T"), "db2", {"T": "t_jdbc"})
    fed.attach_database(s2, _mart("remote_mart", "oracle", "T"), "db3", {"T": "t_remote"})
    return fed, s1.service


DB = _mart("types", "generic", "t")
FED, SERVICE = _federation()
ROUTES = {"pool": "t_pool", "jdbc": "t_jdbc", "remote": "t_remote"}

# -- expressions ---------------------------------------------------------------

NUMERIC_LEAVES = st.sampled_from(
    ["i", "d", "id", "0", "2", "-3", "1.5", "0.25", "?", "(SELECT AVG(d) FROM t)"]
)
#: leaves whose type only the values know; items built on them may keep TEXT
UNTYPED_LEAVES = ("?", "(SELECT")
TEXT_LEAVES = st.sampled_from(["s", "'ab'", "'Q'"])


def _numeric(children, texts, preds):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "/", "%"]), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        children.map(lambda e: f"-({e})"),
        st.tuples(
            st.sampled_from(["ABS", "ROUND", "FLOOR", "CEIL", "SIGN"]), children
        ).map(lambda t: f"{t[0]}({t[1]})"),
        children.map(lambda e: f"ROUND({e}, 1)"),
        st.tuples(children, children).map(lambda t: f"MOD({t[0]}, {t[1]})"),
        texts.map(lambda e: f"LENGTH({e})"),
        texts.map(lambda e: f"INSTR({e}, 'b')"),
        st.tuples(st.sampled_from(["COALESCE", "NULLIF"]), children, children).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})"
        ),
        st.tuples(preds, children, children).map(
            lambda t: f"CASE WHEN {t[0]} THEN {t[1]} ELSE {t[2]} END"
        ),
        st.tuples(preds, children).map(lambda t: f"CASE WHEN {t[0]} THEN {t[1]} END"),
        st.tuples(children, st.sampled_from(["INTEGER", "BIGINT", "DOUBLE"])).map(
            lambda t: f"CAST({t[0]} AS {t[1]})"
        ),
    )


def _text(children, numbers, preds):
    return st.one_of(
        st.tuples(st.sampled_from(["UPPER", "LOWER", "TRIM", "LTRIM"]), children).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        st.tuples(children, st.one_of(children, numbers)).map(
            lambda t: f"({t[0]} || {t[1]})"
        ),
        st.tuples(children, children).map(lambda t: f"CONCAT({t[0]}, {t[1]})"),
        children.map(lambda e: f"SUBSTR({e}, 2)"),
        children.map(lambda e: f"REPLACE({e}, 'a', 'z')"),
        st.tuples(st.sampled_from(["COALESCE", "NULLIF"]), children, children).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})"
        ),
        st.tuples(preds, children, children).map(
            lambda t: f"CASE WHEN {t[0]} THEN {t[1]} ELSE {t[2]} END"
        ),
        numbers.map(lambda e: f"CAST({e} AS VARCHAR(40))"),
    )


def _predicates(numbers, texts):
    comparison = st.one_of(
        st.tuples(numbers, st.sampled_from(["=", "<>", "<", ">="]), numbers).map(
            lambda t: f"{t[0]} {t[1]} {t[2]}"
        ),
        st.tuples(texts, texts).map(lambda t: f"{t[0]} = {t[1]}"),
        numbers.map(lambda e: f"{e} IS NULL"),
        texts.map(lambda e: f"{e} LIKE '%b%'"),
        numbers.map(lambda e: f"{e} BETWEEN 0 AND 5"),
        numbers.map(lambda e: f"{e} IN (2, 3, NULL)"),
    )
    return st.recursive(
        comparison,
        lambda kids: st.one_of(
            kids.map(lambda p: f"NOT ({p})"),
            st.tuples(kids, st.sampled_from(["AND", "OR"]), kids).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
        ),
        max_leaves=2,
    )


def _families():
    """(numeric, text, boolean) expression strategies, well typed."""
    flat_preds = _predicates(NUMERIC_LEAVES, TEXT_LEAVES)
    numbers = st.recursive(
        NUMERIC_LEAVES,
        lambda kids: _numeric(kids, TEXT_LEAVES, flat_preds),
        max_leaves=4,
    )
    texts = st.recursive(
        TEXT_LEAVES, lambda kids: _text(kids, numbers, flat_preds), max_leaves=3
    )
    return numbers, texts, _predicates(numbers, texts)


NUMBERS, TEXTS, PREDICATES = _families()

#: Items the inferencer cannot type: their values have no one type, so
#: they keep the TEXT result type and are exempt from the value checks.
#: (A ``?`` or scalar subquery nested in a typed item leaves it "maybe"
#: typed, see ``_flag``.)
UNTYPED = st.one_of(
    st.just("NULL"),  # the NULL literal is typeless
    st.just("?"),  # a parameter's type is known only at bind time
    st.just("(SELECT MAX(i) FROM t)"),  # scalar subquery (engine only)
    # mixed-family CASE and COALESCE: number or text, bool or number
    st.tuples(PREDICATES, NUMBERS, TEXTS).map(
        lambda t: f"CASE WHEN {t[0]} THEN {t[1]} ELSE {t[2]} END"
    ),
    st.tuples(NUMBERS, TEXTS).map(lambda t: f"COALESCE({t[0]}, {t[1]})"),
    st.tuples(PREDICATES, NUMBERS).map(
        lambda t: f"CASE WHEN {t[0]} THEN {t[0]} ELSE {t[1]} END"
    ),
)

AGGREGATES = st.one_of(
    st.just("COUNT(*)"),
    st.tuples(st.sampled_from(["COUNT", "MIN", "MAX"]), st.one_of(NUMBERS, TEXTS)).map(
        lambda t: f"{t[0]}({t[1]})"
    ),
    st.tuples(
        st.sampled_from(["SUM", "AVG", "MIN", "MAX", "STDDEV", "VARIANCE"]), NUMBERS
    ).map(lambda t: f"{t[0]}({t[1]})"),
)


def _flag(expr: str) -> str:
    """"typed", or "maybe" when an untypable leaf may leave it TEXT."""
    return "maybe" if any(leaf in expr for leaf in UNTYPED_LEAVES) else "typed"


@st.composite
def queries(draw):
    """(SQL with a ``{t}`` table slot, per-item flags: "typed", "maybe"
    or "untyped")."""
    if draw(st.booleans()):
        items = draw(st.lists(AGGREGATES, min_size=1, max_size=3))
        group = draw(st.sampled_from(["", " GROUP BY s", " GROUP BY i"]))
        if group:
            items.insert(0, group.split()[-1])
        sql = f"SELECT {', '.join(items)} FROM {{t}}{group}"
        return sql, [_flag(e) for e in items]
    pool = st.one_of(
        NUMBERS.map(lambda e: (e, _flag(e))),
        TEXTS.map(lambda e: (e, _flag(e))),
        PREDICATES.map(lambda e: (e, _flag(e))),
        UNTYPED.map(lambda e: (e, "untyped")),
    )
    picked = draw(st.lists(pool, min_size=1, max_size=4))
    sql = f"SELECT {', '.join(e for e, _ in picked)} FROM {{t}}"
    if draw(st.booleans()):
        sql += f" WHERE {draw(PREDICATES)}"
    return sql, [flag for _, flag in picked]


# -- checks ------------------------------------------------------------------------


def _type_family(sql_type: SQLType) -> str | None:
    kind = sql_type.kind
    if kind is TypeKind.BOOLEAN:
        return "boolean"
    if kind.is_numeric:
        return "numeric"
    if kind.is_textual or kind.is_temporal:
        return "text"
    return None


def _value_family(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "numeric"
    return "text" if isinstance(value, str) else type(value).__name__


def check_types(sql: str, flags: list[str], types, rows) -> None:
    assert len(types) == len(flags), sql
    for col, (sql_type, flag) in enumerate(zip(types, flags)):
        if flag == "untyped":
            assert sql_type == SQLType.text(), (sql, col, str(sql_type))
            continue
        if flag == "maybe" and sql_type == SQLType.text():
            continue
        family = _type_family(sql_type)
        for row in rows:
            value = row[col]
            if value is None:
                continue
            assert _value_family(value) == family, (sql, col, str(sql_type), value)
            if sql_type.kind in (TypeKind.INTEGER, TypeKind.BIGINT):
                assert not isinstance(value, float), (sql, col, str(sql_type), value)


def _params(sql: str) -> tuple:
    return (PARAM,) * sql.count("?")


@settings(max_examples=150, deadline=None)
@given(queries())
def test_engine_result_types_describe_values(query):
    template, flags = query
    sql = template.format(t="t")
    try:
        result = DB.execute(sql, _params(sql))
    except ReproError:
        return  # ill-typed for the engine (e.g. a bad CAST); nothing to type
    check_types(sql, flags, result.types, result.rows)


@settings(max_examples=60, deadline=None)
@given(queries())
def test_federated_answer_types_describe_values(query):
    template, flags = query
    for route, table in ROUTES.items():
        sql = template.format(t=table)
        try:
            answer = SERVICE.execute(sql, _params(sql))
        except ReproError:
            continue  # refused by the planner (subquery) or the engine
        assert answer.routes == [route]
        decoded = QueryAnswer.from_wire(answer.to_wire())
        check_types(sql, flags, decoded.types, decoded.rows)
        check_types(sql, flags, answer.types, answer.rows)


def test_pinned_computed_columns_are_integers():
    # int arithmetic, COALESCE of ints, LENGTH and ABS of an int all
    # yield ints; their types used to be DOUBLE, TEXT, TEXT, TEXT
    result = DB.execute("SELECT i + 1, COALESCE(i, 0), LENGTH(s), ABS(i) FROM t")
    assert [str(t) for t in result.types] == ["INTEGER"] * 4
    assert all(isinstance(v, int) for row in result.rows for v in row if v is not None)


def test_roadmap_example_over_the_wire():
    from repro.hep.testbed import build_paper_testbed

    tb = build_paper_testbed(seed=1)
    outcome = tb.federation.query(
        tb.client, tb.server1,
        "SELECT event_id + 1, COALESCE(event_id, 0) FROM ntuple_a WHERE event_id <= 5",
    )
    assert [str(t) for t in outcome.answer.types] == ["INTEGER", "INTEGER"]
    assert outcome.answer.rows == [(i + 1, i) for i in range(1, 6)]


def test_untypable_branch_leaves_case_and_coalesce_text():
    # a ``?`` or a scalar subquery beside an int may yield a float: the
    # result stays TEXT; only the NULL literal is skipped as typeless
    for sql in (
        "SELECT COALESCE(i, ?) FROM t",
        "SELECT COALESCE(i, (SELECT AVG(d) FROM t)) FROM t",
        "SELECT CASE WHEN i > 0 THEN ? ELSE i END FROM t",
    ):
        result = DB.execute(sql, _params(sql))
        assert [str(t) for t in result.types] == ["TEXT"], sql
    result = DB.execute("SELECT COALESCE(i, NULL), CASE WHEN i > 0 THEN i END FROM t")
    assert [str(t) for t in result.types] == ["INTEGER", "INTEGER"]


def test_text_mixed_with_temporal_is_plain_text():
    db = Database("dates", "generic")
    db.execute("CREATE TABLE e (id INT PRIMARY KEY, v VARCHAR(3), day DATE)")
    db.execute("INSERT INTO e VALUES (1, NULL, '2005-04-18'), (2, 'abc', NULL)")
    result = db.execute("SELECT COALESCE(v, day), COALESCE(day, 'n/a') FROM e")
    assert [str(t) for t in result.types] == ["TEXT", "TEXT"]
    # a table made from the result, as a mart materializes a view
    copy = db.execute("SELECT COALESCE(v, day) AS w FROM e")
    db.catalog.create_table(
        "f", [Column(name=n, type=t) for n, t in zip(copy.columns, copy.types)]
    ).append_rows(copy.rows)
    assert db.execute("SELECT w FROM f ORDER BY w").rows == [("2005-04-18",), ("abc",)]
