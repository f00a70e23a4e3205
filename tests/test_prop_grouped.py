"""Grouped aggregation and the column-wise WHERE against sqlite3.

The executor groups rows on one ``itemgetter`` when every GROUP BY term
is a plain column, reads aggregate arguments with ``map``, compares
MIN/MAX natively when the values are all numbers or all strings, and
filters a WHERE of ``column op constant`` and ``column BETWEEN c1 AND
c2`` conjuncts one column at a time when every value is in each
constant's family. Each has a per-row
fallback. The property runs generated GROUP BY / HAVING (on an output
alias) / ORDER BY ... LIMIT queries, their GROUP BY and ORDER BY spelled
by name or by select-list position, on the engine, on stdlib sqlite3 and
on a per-row reference written here. The reference fixes the rows
exactly (types and float bits), the errors and ``rows_examined`` /
``rows_visited``; sqlite3 checks the same rows wherever its semantics
and the engine's agree (see ``_sqlite_differs``).
"""

from __future__ import annotations

import math
import operator
import sqlite3

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ReproError, SQLTypeError
from repro.engine import Database
from repro.engine import executor
from repro.engine.executor import _SortKey
from repro.lint import CatalogSchema, lint_sql
from repro.sql import eval as sql_eval
from repro.tools.demo import two_server_federation

BIG = 2**53
# sums of up to 12 values stay inside sqlite3's 64-bit integers
_VALUES = {
    "int": st.integers(-3, 3),
    "big": st.one_of(
        st.integers(-3, 3), st.integers(BIG + 1, 2**56), st.integers(-(2**56), -BIG - 1)
    ),
    "float": st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    ),
    "bool": st.one_of(st.booleans(), st.integers(-1, 2)),
    "str": st.sampled_from(["", "a", "B", "b", "ab", "1", "10", "2"]),
}
_VALUES["number"] = st.one_of(_VALUES["int"], _VALUES["float"])
# half strings, so a group often mixes them with numbers and bools
_VALUES["mixed"] = st.one_of(_VALUES["str"], st.one_of(*_VALUES.values()))
#: kinds whose columns are declared TEXT; the others are DOUBLE
_TEXT_KINDS = frozenset({"str", "mixed"})
COLUMNS = ["v0", "v1", "v2", "v3"]
_OPS = ["=", "<>", "<", "<=", ">", ">="]
_COMPARE = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_BOUNDING = frozenset({"=", "<", "<=", ">", ">="})


@st.composite
def tables(draw):
    """``(kinds, rows)``: rows ``(id, v0..v3)``, each ``v`` column of one
    value kind, with or without NULLs."""
    kinds = [draw(st.sampled_from(sorted(_VALUES))) for _ in COLUMNS]
    nulls = [draw(st.booleans()) for _ in COLUMNS]
    values = [
        st.one_of(st.none(), _VALUES[k]) if null else _VALUES[k]
        for k, null in zip(kinds, nulls)
    ]
    n = draw(st.integers(0, 12))
    return kinds, [(i, *(draw(v) for v in values)) for i in range(n)]


def _constant(draw, kind: str, param: bool):
    """A literal in the column's declared family, or any ``?`` value."""
    if param:
        return draw(st.one_of(st.none(), *_VALUES.values()))
    if kind in _TEXT_KINDS:
        return draw(_VALUES["str"])
    return draw(st.one_of(_VALUES["int"], _VALUES["float"], _VALUES["big"]))


@st.composite
def queries(draw, kinds):
    """A query spec over ``kinds``' columns (see :func:`render`)."""
    numeric = [c for c, k in zip(COLUMNS, kinds) if k not in _TEXT_KINDS]
    text = [c for c, k in zip(COLUMNS, kinds) if k in _TEXT_KINDS]
    shape = draw(st.sampled_from(["none", "one", "two", "expr"]))
    first = draw(st.sampled_from(COLUMNS))
    if shape == "none":
        group = []
    elif shape == "one":
        group = [("col", first)]
    elif shape == "two":
        group = [("col", first), ("col", draw(st.sampled_from(COLUMNS)))]
    else:  # COALESCE over one declared family, so its static type is known
        same = text if first in text else numeric
        group = [("coalesce", first, draw(st.sampled_from(same)))]
    aggregates = [("COUNT", None)]
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(
            ["COUNT", "COUNT DISTINCT", "MIN", "MAX"] + (["SUM", "AVG"] if numeric else [])
        ))
        column = draw(st.sampled_from(numeric if name in ("SUM", "AVG") else COLUMNS))
        aggregates.append((name, column))
    where = []
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(["id", "isnull", "between", *COLUMNS, *COLUMNS]))
        if target == "between":
            column, param = draw(st.sampled_from(COLUMNS)), draw(st.booleans())
            kind = kinds[COLUMNS.index(column)]
            where.append(("between", column, _constant(draw, kind, param),
                          _constant(draw, kind, param), draw(st.booleans()), param))
        elif target == "id":
            where.append(("id", draw(st.sampled_from(_OPS)), draw(st.integers(-1, 12)),
                          draw(st.booleans())))
        elif target == "isnull":
            where.append(("isnull", draw(st.sampled_from(COLUMNS))))
        else:
            param = draw(st.booleans())
            kind = kinds[COLUMNS.index(target)]
            where.append((target, draw(st.sampled_from(_OPS)), _constant(draw, kind, param),
                          param))
    having = draw(st.one_of(st.none(), st.integers(0, 3)))
    outputs = [f"g{i}" for i in range(len(group))]
    aliases = [f"a{i}" for i in range(len(aggregates))]
    order = []
    if draw(st.booleans()):
        lead = draw(st.one_of(st.none(), st.sampled_from(aliases)))
        keys = ([lead] if lead else []) + draw(st.permutations(outputs))
        order = [(key, draw(st.booleans())) for key in keys]
    limit = draw(st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(0, 2))))
    return {"group": group, "aggregates": aggregates, "where": where,
            "having": having, "order": order, "limit": limit,
            "positions": draw(st.booleans())}


def _aggregate_sql(name: str, column: str | None) -> str:
    if column is None:
        return "COUNT(*)"
    if name == "COUNT DISTINCT":
        return f"COUNT(DISTINCT {column})"
    return f"{name}({column})"


def _group_sql(term) -> str:
    return term[1] if term[0] == "col" else f"COALESCE({term[1]}, {term[2]})"


def render(q, ordered=True, sqlite=False) -> tuple[str, tuple]:
    """``(sql, params)``; sqlite3 spells out the engine's NULL placement
    (NULL sorts greatest: last ascending, first descending). With
    ``positions`` GROUP BY and ORDER BY name their select items by
    1-based position."""
    items = [f"{_group_sql(g)} AS g{i}" for i, g in enumerate(q["group"])]
    items += [f"{_aggregate_sql(*a)} AS a{i}" for i, a in enumerate(q["aggregates"])]
    names = [item.rsplit(" AS ", 1)[1] for item in items]
    sql = f"SELECT {', '.join(items)} FROM t"
    conjuncts, params = [], []
    for conj in q["where"]:
        if conj[0] == "isnull":
            conjuncts.append(f"{conj[1]} IS NULL")
            continue
        if conj[0] == "between":
            _, column, low, high, negated, param = conj
            if param:
                params += [low, high]
                low = high = "?"
            else:
                low, high = repr(low), repr(high)
            conjuncts.append(f"{column} {'NOT ' if negated else ''}BETWEEN {low} AND {high}")
            continue
        column, op, value, param = conj
        if param:
            params.append(value)
            conjuncts.append(f"{column} {op} ?")
        else:
            conjuncts.append(f"{column} {op} {value!r}")
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)
    if q["group"]:
        terms = [
            str(i + 1) if q["positions"] else _group_sql(g) for i, g in enumerate(q["group"])
        ]
        sql += " GROUP BY " + ", ".join(terms)
    if q["having"] is not None:
        sql += f" HAVING a0 >= {q['having']}"
    if ordered and q["order"]:
        terms = []
        for key, ascending in q["order"]:
            key = str(names.index(key) + 1) if q["positions"] else key
            term = f"{key} {'ASC' if ascending else 'DESC'}"
            if sqlite:
                term += " NULLS LAST" if ascending else " NULLS FIRST"
            terms.append(term)
        sql += " ORDER BY " + ", ".join(terms)
    if ordered and q["limit"] is not None:
        sql += f" LIMIT {q['limit'][0]} OFFSET {q['limit'][1]}"
    return sql, tuple(params)


# -- the per-row reference ---------------------------------------------------------


def _cmp(op, a, b):
    """SQL comparison: NULL is unknown, a bool is its int, and a number
    and a string do not compare."""
    if a is None or b is None:
        return None
    a, b = (int(v) if isinstance(v, bool) else v for v in (a, b))
    if isinstance(a, str) != isinstance(b, str):
        raise SQLTypeError(f"cannot compare {a!r} with {b!r}")
    return _COMPARE[op](a, b)


def _reference_aggregate(name, column, rows):
    if column is None:
        return len(rows)
    values = [r[1 + COLUMNS.index(column)] for r in rows]
    values = [v for v in values if v is not None]
    if name == "COUNT":
        return len(values)
    if name == "COUNT DISTINCT":
        return len(set(values))
    if not values:
        return None
    if name == "SUM":
        return sum(values)
    if name == "AVG":
        return sum(values) / len(values)
    if name == "MIN":
        return min(values, key=_SortKey)
    return max(values, key=_SortKey)


def reference(q, rows, ordered=True):
    """``(rows, rows_examined, rows_visited)`` row by row, or raise the
    engine's SQLTypeError."""
    where = q["where"]
    # the primary key's range index: rows outside it are never evaluated
    bounds = [c for c in where if c[0] == "id" and c[1] in _BOUNDING]
    in_range = [r for r in rows if all(_COMPARE[op](r[0], v) for _, op, v, _ in bounds)]
    kept = []
    for row in in_range:
        # AND evaluates every conjunct, so any one can raise
        results = []
        for conj in where:
            if conj[0] == "isnull":
                results.append(row[1 + COLUMNS.index(conj[1])] is None)
                continue
            if conj[0] == "between":
                _, target, low, high, negated, _param = conj
                a = row[1 + COLUMNS.index(target)]
                # both sides are evaluated, so either can raise
                sides = (_cmp(">=", a, low), _cmp("<=", a, high))
                inside = False if False in sides else None if None in sides else True
                results.append(None if inside is None else inside != negated)
                continue
            target, op, value, _param = conj
            a = row[0] if target == "id" else row[1 + COLUMNS.index(target)]
            results.append(_cmp(op, a, value))
        if all(r is True for r in results):
            kept.append(row)
    groups: dict[tuple, list] = {}
    for row in kept:
        key = []
        for term in q["group"]:
            first = row[1 + COLUMNS.index(term[1])]
            if term[0] == "coalesce" and first is None:
                first = row[1 + COLUMNS.index(term[2])]
            key.append(first)
        groups.setdefault(tuple(key), []).append(row)
    if not q["group"]:
        groups = {(): kept}
    out = [
        key + tuple(_reference_aggregate(n, c, grouped) for n, c in q["aggregates"])
        for key, grouped in groups.items()
    ]
    if q["having"] is not None:
        out = [r for r in out if r[len(q["group"])] >= q["having"]]
    if ordered:
        names = [f"g{i}" for i in range(len(q["group"]))]
        names += [f"a{i}" for i in range(len(q["aggregates"]))]
        for key, ascending in reversed(q["order"]):
            i = names.index(key)
            out.sort(key=lambda r, i=i: _SortKey(r[i]), reverse=not ascending)
        if q["limit"] is not None:
            limit, offset = q["limit"]
            out = out[offset:][:limit]
    n, r = len(rows), len(in_range)
    examined = n + (n if where else 0) + len(kept)
    visited = r + (r if where else 0) + len(kept)
    return out, examined, visited


# -- comparison with sqlite3 ------------------------------------------------------

#: Output columns sqlite3 answers differently by design; the reference
#: alone checks them:
#: - MIN/MAX over a column mixing strings and numbers: ``_SortKey``
#:   orders mixed families by ``str``, sqlite3 puts every number first;
#: - AVG over ints beyond 2**53: sqlite3 adds them as doubles, the engine
#:   exactly, so a sum that cancels differs.
#: A bool reaches sqlite3 as 0 or 1, and Python's ``True == 1`` matches
#: it; a WHERE the engine rejects (a string compared with a number)
#: sqlite3 answers, so those queries are checked for the error only.
def _sqlite_differs(name, column, kinds) -> bool:
    kind = kinds[COLUMNS.index(column)] if column else None
    return (name in ("MIN", "MAX") and kind == "mixed") or (name == "AVG" and kind == "big")


def _canonical(value):
    """A sort key that orders SQL values the same in both answers."""
    if value is None:
        return (0, 0)
    if isinstance(value, str):
        return (2, value)
    return (1, value)


def _same_row(mine, theirs, approx: list[bool]) -> bool:
    for a, b, close in zip(mine, theirs, approx):
        if close and isinstance(a, float) and isinstance(b, float):
            if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                return False
        elif a != b or (a is None) != (b is None):
            return False
    return True


def _sqlite_view(q, kinds):
    """``(kept columns, approx flags)``: which output columns sqlite3 must
    match, and which of those match only to rounding (SUM/AVG of floats,
    which sqlite3 may add in another order)."""
    keep = [True] * len(q["group"])
    approx = [False] * len(q["group"])
    for name, column in q["aggregates"]:
        keep.append(not _sqlite_differs(name, column, kinds))
        approx.append(name in ("SUM", "AVG"))
    return keep, approx


def _project(rows, keep):
    return [tuple(v for v, k in zip(r, keep) if k) for r in rows]


def _totally_ordered(q, rows, kinds) -> bool:
    """True when the ORDER BY gives ``rows`` one order in both engines:
    it names every group key, no key is a SUM/AVG (rounding could swap
    near ties) or a column sqlite3 answers differently, and each key's
    values are all numbers or all strings."""
    if not q["order"] or len(q["order"]) < len(q["group"]):
        return not q["group"] or len(rows) <= 1
    names = [f"g{i}" for i in range(len(q["group"]))]
    names += [f"a{i}" for i in range(len(q["aggregates"]))]
    for key, _ascending in q["order"]:
        i = names.index(key)
        if i >= len(q["group"]):
            name, column = q["aggregates"][i - len(q["group"])]
            if name in ("SUM", "AVG") or _sqlite_differs(name, column, kinds):
                return False
        values = {type(r[i]) for r in rows} - {type(None)}
        if str in values and len(values) > 1:
            return False
    return True


def _engine(rows, kinds) -> Database:
    db = Database("grouped_db")
    types = ", ".join(
        f"{c} {'TEXT' if k in _TEXT_KINDS else 'DOUBLE'}" for c, k in zip(COLUMNS, kinds)
    )
    db.execute(f"CREATE TABLE t (id INT PRIMARY KEY, {types})")
    # stored as drawn, past the write path's coercion, so one column can
    # mix value types
    db.catalog.get_table("t").rows = list(rows)
    return db


def _sqlite(rows) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    # no declared types: no affinity converts a stored value
    conn.execute(f"CREATE TABLE t (id INTEGER PRIMARY KEY, {', '.join(COLUMNS)})")
    conn.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", rows)
    return conn


@st.composite
def cases(draw):
    kinds, rows = draw(tables())
    return kinds, rows, draw(queries(kinds))


def _case(kinds, rows, aggregates=(), group=(), where=(), order=(), positions=False):
    return kinds, rows, {
        "group": list(group), "aggregates": [("COUNT", None), *aggregates],
        "where": list(where), "having": None, "order": list(order), "limit": None,
        "positions": positions,
    }


@settings(max_examples=300, deadline=None)
@given(cases())
# MIN/MAX over strings, numbers and a bool: _SortKey compares them by str
@example(_case(
    ["mixed", "int", "int", "int"],
    [(0, "b", 1, 1, 1), (1, 2, 1, 1, 1), (2, True, 1, 1, 1), (3, "10", 1, 1, 1)],
    aggregates=[("MIN", "v0"), ("MAX", "v0")], group=[("col", "v1")],
))
# a string in v1 on a row the first conjunct drops still raises
@example(_case(
    ["int", "mixed", "int", "int"],
    [(0, 1, "a", 1, 1), (1, 2, 2, 1, 1)],
    where=[("v0", ">", 1, False), ("v1", "<", 3, True)],
))
# BETWEEN keeps both bounds, column-wise
@example(_case(
    ["int", "float", "int", "int"],
    [(0, 0, 1.0, 0, 0), (1, 1, 2.0, 0, 0), (2, 2, 2.5, 0, 0), (3, 3, 1.5, 0, 0)],
    where=[("between", "v0", 1, 2.0, False, False), ("between", "v1", 1, 2, False, True)],
))
# NOT BETWEEN row by row, where a NULL operand is unknown
@example(_case(
    ["int", "float", "int", "int"],
    [(0, 0, 1.0, 0, 0), (1, 1, None, 0, 0), (2, 2, 2.5, 0, 0)],
    where=[("between", "v1", 1, 2, True, False)],
))
# GROUP BY 1 ORDER BY 2 DESC, 1 over a = 3, 1, 2, 1
@example(_case(
    ["int", "int", "int", "int"],
    [(0, 3, 0, 0, 0), (1, 1, 0, 0, 0), (2, 2, 0, 0, 0), (3, 1, 0, 0, 0)],
    group=[("col", "v0")], order=[("a0", False), ("g0", True)], positions=True,
))
def test_grouped_queries_match_reference_and_sqlite(case):
    kinds, rows, q = case
    db = _engine(rows, kinds)
    try:
        expected, examined, visited = reference(q, rows)
    except SQLTypeError:
        with pytest.raises(SQLTypeError):
            db.execute(*render(q))
        return
    result = db.execute(*render(q))
    assert repr(result.rows) == repr(expected)
    assert (result.stats.rows_examined, result.stats.rows_visited) == (examined, visited)

    unordered = db.execute(*render(q, ordered=False)).rows
    assert repr(unordered) == repr(reference(q, rows, ordered=False)[0])
    conn = _sqlite(rows)
    keep, approx = _sqlite_view(q, kinds)
    approx = [a for a, k in zip(approx, keep) if k]
    mine = sorted(_project(unordered, keep), key=lambda r: [_canonical(v) for v in r])
    theirs = sorted(
        _project(conn.execute(*render(q, ordered=False, sqlite=True)).fetchall(), keep),
        key=lambda r: [_canonical(v) for v in r],
    )
    assert len(mine) == len(theirs)
    assert all(_same_row(a, b, approx) for a, b in zip(mine, theirs)), (mine, theirs)
    if _totally_ordered(q, unordered, kinds):
        theirs = _project(conn.execute(*render(q, sqlite=True)).fetchall(), keep)
        mine = _project(result.rows, keep)
        assert len(mine) == len(theirs)
        assert all(_same_row(a, b, approx) for a, b in zip(mine, theirs)), (mine, theirs)


# -- both paths run -------------------------------------------------------------------


def test_batch_paths_and_fallbacks_both_run(monkeypatch):
    """The batch WHERE and the ``itemgetter`` group keys each run, and so
    does each fallback, on the shapes the rule names."""
    seen = []
    batch = sql_eval.filter_columnwise

    def spy(*args):
        kept = batch(*args)
        seen.append("batch" if kept is not None else "per-row")
        return kept

    monkeypatch.setattr(executor, "filter_columnwise", spy)
    group_keys = executor.SelectExecutor._group_keys

    def key_spy(*args):
        keys = group_keys(*args)
        seen.append(type(keys).__name__)
        return keys

    monkeypatch.setattr(executor.SelectExecutor, "_group_keys", staticmethod(key_spy))
    rows = [(0, 1, 2.5, "a", None), (1, 2, 0.5, "b", True), (2, 1, 1.5, "a", 3)]
    db = _engine(rows, ["int", "float", "str", "mixed"])
    assert db.execute(
        "SELECT v0, COUNT(*) AS n, MIN(v1), MAX(v2) FROM t WHERE v1 > 0.75 AND v2 <> 'c' "
        "GROUP BY v0"
    ).rows == [(1, 2, 1.5, "a")]
    # NULL and a bool in v3: row by row, where True > 0 holds
    assert db.execute("SELECT v0, MAX(v3) FROM t WHERE v3 > ? GROUP BY v0", (0,)).rows == [
        (2, True), (1, 3),
    ]
    assert db.execute("SELECT COUNT(*) FROM t WHERE v0 = 1 AND v1 IS NOT NULL").rows == [(2,)]
    assert db.execute("SELECT COUNT(*), MIN(v2) FROM t GROUP BY v0, v2").rows == [
        (2, "a"), (1, "b"),
    ]
    # COALESCE(v3, v0) is 1 for row 0 and True for row 1: one group
    assert db.execute("SELECT COUNT(*) FROM t GROUP BY COALESCE(v3, v0)").rows == [(2,), (1,)]
    # BETWEEN is two column tests; NOT BETWEEN runs row by row
    assert db.execute("SELECT id FROM t WHERE v1 BETWEEN 1 AND ?", (2.5,)).rows == [(0,), (2,)]
    assert db.execute("SELECT id FROM t WHERE v1 NOT BETWEEN 1 AND 2").rows == [(0,), (1,)]
    assert seen == [
        "batch", "zip", "per-row", "zip", "per-row", "map", "generator", "batch", "per-row",
    ]


def test_max_with_nan_keeps_the_sortkey_order():
    """``_SortKey`` derives ``>`` as "not < and !=", true both ways
    between NaN and a number, so MAX over 2.0, NaN, 1.0 is 1.0; native
    ``max`` would give 2.0."""
    rows = [(0, 1, 2.0, None, None), (1, 1, math.nan, None, None), (2, 1, 1.0, None, None)]
    db = _engine(rows, ["int", "float", "str", "str"])
    values = [2.0, math.nan, 1.0]
    assert max(values) == 2.0
    assert db.execute("SELECT MAX(v1), MIN(v1) FROM t").rows == [
        (max(values, key=_SortKey), min(values, key=_SortKey)),
    ] == [(1.0, 1.0)]


def test_star_argument_needs_count():
    """Every aggregate takes exactly one argument; COUNT also takes *
    (or nothing, sqlite3's spelling of it). Extra arguments are refused
    at plan time, even over an empty table, instead of being ignored."""
    db = _engine([], ["int", "int", "str", "str"])
    for sql in (
        "SELECT SUM(*) FROM t", "SELECT MAX(*) FROM t", "SELECT AVG() FROM t",
        "SELECT MIN(v0, v1) FROM t", "SELECT MAX(v0, v1) FROM t",
        "SELECT SUM(v0, v1) FROM t", "SELECT AVG(v0, v1) FROM t",
        "SELECT COUNT(v0, v1) FROM t", "SELECT COUNT(DISTINCT v0, v1) FROM t",
        "SELECT v0 FROM t GROUP BY v0 HAVING MIN(v0, v1) > 0",
    ):
        with pytest.raises(SQLTypeError):
            db.execute(sql)
    assert db.execute("SELECT COUNT(*), COUNT() FROM t").rows == [(0, 0)]


# -- select-list positions ------------------------------------------------------------

#: over a = 3, 1, 2, 1: sqlite3 sorts and groups by a bare integer's
#: select-list position, refuses 0, -1, a position past the list and one
#: naming an aggregate in GROUP BY, and sorts by 1.5 or 1 + 0 as constants
POSITION_CASES = [
    "SELECT a FROM u ORDER BY 1",
    "SELECT a FROM u ORDER BY 1 DESC",
    "SELECT a, COUNT(*) FROM u GROUP BY 1",
    "SELECT a, COUNT(*) AS n FROM u GROUP BY 1 ORDER BY 2 DESC, 1",
    "SELECT a + 1 AS b FROM u GROUP BY 1 ORDER BY 1 DESC",
    "SELECT *, a FROM u ORDER BY 2",
    "SELECT a FROM u ORDER BY 0",
    "SELECT a FROM u ORDER BY -1",
    "SELECT a FROM u ORDER BY 2",
    "SELECT a, COUNT(*) FROM u GROUP BY 3",
    "SELECT a, COUNT(*) FROM u GROUP BY 2",
    "SELECT a FROM u ORDER BY 1.5",
    "SELECT a FROM u ORDER BY 1 + 0",
]


@pytest.mark.parametrize("sql", POSITION_CASES)
def test_positions_match_sqlite(sql):
    db = Database("positions")
    db.execute("CREATE TABLE u (a INT)")
    db.execute("INSERT INTO u VALUES (3), (1), (2), (1)")
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE u (a INTEGER)")
    conn.executemany("INSERT INTO u VALUES (?)", [(3,), (1,), (2,), (1,)])
    try:
        theirs = conn.execute(sql).fetchall()
    except sqlite3.Error:
        with pytest.raises(ReproError):
            db.execute(sql)
        assert not lint_sql(sql, CatalogSchema(db)).ok
        return
    mine = db.execute(sql).rows
    if "ORDER BY" not in sql:  # groups come in first-appearance order here
        mine, theirs = sorted(mine), sorted(theirs)
    assert mine == theirs
    assert lint_sql(sql, CatalogSchema(db)).ok


def test_federated_order_by_position():
    _, a, _, _, _ = two_server_federation()
    join = (
        "SELECT e.event_id, r.detector FROM events e "
        "INNER JOIN runs r ON e.run_id = r.run_id"
    )
    by_position = a.service.execute(join + " ORDER BY 2 DESC, 1").rows
    assert by_position == a.service.execute(
        join + " ORDER BY r.detector DESC, e.event_id"
    ).rows
    assert by_position == sorted(sorted(by_position), key=lambda r: r[1], reverse=True)
    assert len(by_position) == 10
