"""The hash join against sqlite3 and a per-row reference loop.

The executor hashes the right input on its equi-join key columns and
probes it with each left row; a key holding NULL never matches, and a
LEFT row with no match is padded with NULLs. The property draws INNER
and LEFT joins on one- and two-column keys, with duplicate and NULL
keys on both sides, unique and non-unique build sides, and ON clauses
with and without a residual non-equi conjunct. The engine's rows must
equal sqlite3's as a multiset and the reference loop's in order: left
rows in storage order, each with its matches in the right input's
storage order.

A second property joins chains of two and three tables. Consecutive
equi-joins without a residual are probed together as one run, with no
intermediate rows built; a stage with a residual ends the run. The
chain selects every column or a drawn list of them in any order,
with an optional WHERE and ORDER BY keys that may be unselected
columns, descending or NULL. Each chain runs twice: built full width,
as a run that reads few rows is, and with the narrowing threshold at 0,
so a plain SELECT of bare columns builds only the columns it reads.
Both times the chain's rows must equal a stagewise
reference (one join at a time, as above, at full width, then
filtered, sorted and projected) in order and sqlite3 3.40.1 as a
multiset, its column names and types must be the full-width ones,
and its ``rows_examined`` and ``join_strategy`` must be the stagewise
values: each stage charges its input rows and its build rows.
"""

from __future__ import annotations

import re
import sqlite3
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Database, executor
from repro.engine.executor import _probe_text

#: key values: small ints, an int-valued float (equal to its int) and NULL
KEYS = st.one_of(st.none(), st.integers(0, 3), st.just(1.0))
VALUES = st.one_of(st.none(), st.integers(-1, 2))
#: ON-clause conjuncts that are not equi-join key pairs, with their row test
RESIDUALS = {
    "l.x < r.y": lambda lr, rr: _lt(lr[3], rr[3]),
    "r.y > 0": lambda lr, rr: _lt(0, rr[3]),
    "l.x <> 1": lambda lr, rr: None if lr[3] is None else lr[3] != 1,
}
SELECT = "SELECT l.id, l.a, l.b, l.x, r.id, r.a, r.b, r.y FROM l"


def _lt(a, b):
    return None if a is None or b is None else a < b


@st.composite
def sides(draw, unique: bool):
    """Rows ``(id, a, b, v)``; with ``unique`` the ``a`` values, and so
    the ``(a, b)`` pairs, are all distinct (1 and 1.0 are one value)."""
    a_values = draw(st.lists(KEYS, max_size=8, unique=unique))
    return [(i, a, draw(KEYS), draw(VALUES)) for i, a in enumerate(a_values)]


@st.composite
def joins(draw):
    unique = draw(st.booleans())
    return {
        "kind": draw(st.sampled_from(["INNER", "LEFT"])),
        "keys": draw(st.sampled_from([("a",), ("a", "b")])),
        "flipped": draw(st.booleans()),
        "residual": draw(st.one_of(st.none(), st.sampled_from(sorted(RESIDUALS)))),
        "left": draw(sides(False)),
        "right": draw(sides(unique)),
    }


def render(q) -> str:
    conjuncts = [
        f"r.{k} = l.{k}" if q["flipped"] else f"l.{k} = r.{k}" for k in q["keys"]
    ]
    if q["residual"] is not None:
        conjuncts.append(q["residual"])
    return f"{SELECT} {q['kind']} JOIN r ON {' AND '.join(conjuncts)}"


def reference(q) -> list[tuple]:
    """The join row by row: every right row for each left row."""
    positions = [{"a": 1, "b": 2}[k] for k in q["keys"]]
    residual = RESIDUALS.get(q["residual"])
    out = []
    for lr in q["left"]:
        matched = False
        for rr in q["right"]:
            if all(lr[p] is not None and lr[p] == rr[p] for p in positions) and (
                residual is None or residual(lr, rr) is True
            ):
                out.append(lr + rr)
                matched = True
        if not matched and q["kind"] == "LEFT":
            out.append(lr + (None,) * 4)
    return out


def _engine(q) -> Database:
    db = Database("join_db")
    db.execute("CREATE TABLE l (id INT PRIMARY KEY, a DOUBLE, b DOUBLE, x INT)")
    db.execute("CREATE TABLE r (id INT PRIMARY KEY, a DOUBLE, b DOUBLE, y INT)")
    # stored as drawn, past the write path's coercion, so 1 and 1.0 both stay
    db.catalog.get_table("l").rows = list(q["left"])
    db.catalog.get_table("r").rows = list(q["right"])
    return db


def _sqlite(q) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    # no declared types: no affinity converts a stored value
    conn.execute("CREATE TABLE l (id INTEGER PRIMARY KEY, a, b, x)")
    conn.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, a, b, y)")
    conn.executemany("INSERT INTO l VALUES (?, ?, ?, ?)", q["left"])
    conn.executemany("INSERT INTO r VALUES (?, ?, ?, ?)", q["right"])
    return conn


def _multiset(rows) -> list:
    return sorted(repr([(v is None, v) for v in row]) for row in rows)


def _case(kind, keys, left, right, residual=None, flipped=False):
    return {"kind": kind, "keys": keys, "flipped": flipped, "residual": residual,
            "left": left, "right": right}


@settings(max_examples=150, deadline=None)
@given(joins())
# a LEFT row whose only key match fails the residual is padded
@example(_case("LEFT", ("a",), [(0, 1, 0, 1)], [(0, 1, 0, 0)], residual="l.x < r.y"))
# ... and so is one whose several key matches all fail it, beside a row
# whose matches all pass
@example(_case(
    "LEFT", ("a",), [(0, 1, 0, 1), (1, 1, 0, -1)], [(0, 1, 0, 0), (1, 1.0, 0, 1)],
    residual="l.x < r.y",
))
# duplicate build keys keep their storage order; NULL keys never match
@example(_case(
    "LEFT", ("a", "b"),
    [(0, 1, None, 0), (1, 1, 2, 0), (2, None, 2, 0)],
    [(0, 1, 2, 0), (1, 1.0, 2, 1), (2, 1, None, 2), (3, None, 2, 3)],
))
def test_hash_join_matches_sqlite_and_the_reference(q):
    result = _engine(q).execute(render(q))
    expected = reference(q)
    assert repr(result.rows) == repr(expected)
    theirs = _sqlite(q).execute(render(q)).fetchall()
    assert _multiset(result.rows) == _multiset(theirs)
    scanned = len(q["left"]) + len(q["right"])
    assert result.stats.join_strategy == ["hash"]
    # each table's scan, then the join's build and probe
    assert result.stats.rows_examined == 2 * scanned


#: a chain stage's residual conjuncts on table ``t{i}``, with their test
#: of the row built so far (its parts) and the stage's right row
CHAIN_RESIDUALS = {
    "t{i}.v > 0": lambda parts, rr: _lt(0, rr[3]),
    "t0.v < t{i}.v": lambda parts, rr: _lt(parts[0][3], rr[3]),
}
#: each chain table's columns, in storage order
CHAIN_COLUMNS = ("id", "a", "b", "v")


@st.composite
def chains(draw):
    """A base table ``t0`` joined to ``t1`` .. ``tk`` (k of 2 or 3). Each
    stage keys on ``a`` or on ``a`` and ``b``, each key column read
    from any earlier table (so a two-column key may span two of them);
    a stage before the last may carry a residual."""
    k = draw(st.integers(2, 3))
    stages = []
    for i in range(1, k + 1):
        columns = draw(st.sampled_from([("a",), ("a", "b")]))
        stages.append({
            "kind": draw(st.sampled_from(["INNER", "LEFT"])),
            "keys": [(c, draw(st.integers(0, i - 1))) for c in columns],
            "flipped": draw(st.booleans()),
            "residual": draw(st.one_of(st.none(), st.sampled_from(sorted(CHAIN_RESIDUALS))))
            if i < k else None,
            "rows": draw(sides(draw(st.booleans()))),
        })
    columns = st.tuples(st.integers(0, k), st.sampled_from(CHAIN_COLUMNS))
    return {
        "base": draw(sides(False)),
        "stages": stages,
        # None: SELECT *
        "select": draw(st.one_of(st.none(), st.lists(columns, min_size=1, max_size=6))),
        # None, or the column of ``column > 0``
        "where": draw(st.one_of(st.none(), columns)),
        "order": draw(st.lists(st.tuples(columns, st.booleans()), max_size=3)),
    }


def _column(ref) -> str:
    return f"t{ref[0]}.{ref[1]}"


def _position(ref) -> int:
    return 4 * ref[0] + CHAIN_COLUMNS.index(ref[1])


def render_chain(c) -> str:
    items = "*" if c.get("select") is None else ", ".join(map(_column, c["select"]))
    sql = f"SELECT {items} FROM t0"
    for i, stage in enumerate(c["stages"], start=1):
        conjuncts = [
            f"t{j}.{col} = t{i}.{col}" if stage["flipped"] else f"t{i}.{col} = t{j}.{col}"
            for col, j in stage["keys"]
        ]
        if stage["residual"] is not None:
            conjuncts.append(stage["residual"].format(i=i))
        sql += f" {stage['kind']} JOIN t{i} ON {' AND '.join(conjuncts)}"
    if c.get("where") is not None:
        sql += f" WHERE {_column(c['where'])} > 0"
    if c.get("order"):
        sql += " ORDER BY " + ", ".join(
            _column(ref) + ("" if ascending else " DESC") for ref, ascending in c["order"]
        )
    return sql


def finish(c, rows: list[tuple], examined: int) -> tuple[list[tuple], int]:
    """Full-width joined ``rows`` through the chain's WHERE (which
    examines each of them), ORDER BY (NULL greatest, ties in input
    order) and select list."""
    if c.get("where") is not None:
        examined += len(rows)
        p = _position(c["where"])
        rows = [row for row in rows if _lt(0, row[p])]
    for ref, ascending in reversed(c.get("order") or []):
        p = _position(ref)
        rows.sort(key=lambda row: (row[p] is None, 0 if row[p] is None else row[p]),
                  reverse=not ascending)
    if c.get("select") is not None:
        positions = list(map(_position, c["select"]))
        rows = [tuple(row[p] for p in positions) for row in rows]
    return rows, examined


def stagewise(c) -> tuple[list[tuple], int]:
    """The chain one join at a time, row by row, and the rows each
    stage examines: its input rows and its build rows, after every
    table's scan."""
    rows = [(lr,) for lr in c["base"]]  # each row as its parts
    examined = len(c["base"]) + sum(len(stage["rows"]) for stage in c["stages"])
    for stage in c["stages"]:
        examined += len(rows) + len(stage["rows"])
        residual = CHAIN_RESIDUALS.get(stage["residual"])
        out = []
        for parts in rows:
            matched = False
            for rr in stage["rows"]:
                keys = [(parts[j][{"a": 1, "b": 2}[col]], rr[{"a": 1, "b": 2}[col]])
                        for col, j in stage["keys"]]
                if all(lv is not None and lv == rv for lv, rv in keys) and (
                    residual is None or residual(parts, rr) is True
                ):
                    out.append(parts + (rr,))
                    matched = True
            if not matched and stage["kind"] == "LEFT":
                out.append(parts + ((None,) * 4,))
        rows = out
    return [sum(parts, ()) for parts in rows], examined


def _chain_tables(c) -> list[list[tuple]]:
    return [c["base"]] + [stage["rows"] for stage in c["stages"]]


def _chain_engine(c) -> Database:
    db = Database("chain_db")
    for i, rows in enumerate(_chain_tables(c)):
        db.execute(f"CREATE TABLE t{i} (id INT PRIMARY KEY, a DOUBLE, b DOUBLE, v INT)")
        # stored as drawn, past the write path's coercion, so 1 and 1.0 both stay
        db.catalog.get_table(f"t{i}").rows = list(rows)
    return db


def _chain_sqlite(c) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    for i, rows in enumerate(_chain_tables(c)):
        conn.execute(f"CREATE TABLE t{i} (id INTEGER PRIMARY KEY, a, b, v)")
        conn.executemany(f"INSERT INTO t{i} VALUES (?, ?, ?, ?)", rows)
    return conn


def _stage(kind, keys, rows, residual=None, flipped=False):
    return {"kind": kind, "keys": keys, "flipped": flipped, "residual": residual,
            "rows": rows}


@settings(max_examples=150, deadline=None)
@given(chains())
# a LEFT pad in the middle: the next stage's key, read off the pad, is NULL
@example({"base": [(0, 1, 0, 1), (1, 2, 0, 1)], "stages": [
    _stage("LEFT", [("a", 0)], [(0, 1.0, 0, 0)]),
    _stage("LEFT", [("a", 1)], [(0, 1, 0, 0), (1, None, 0, 0)]),
]})
# duplicate build keys fan out in storage order; 1 beside 1.0; a key
# spanning two tables; a residual in the middle ends the run
@example({"base": [(0, 1, 2, 1), (1, 1.0, None, 2), (2, None, 2, 0)], "stages": [
    _stage("INNER", [("a", 0)], [(0, 1, 2, 3), (1, 1.0, 2, 0), (2, None, 2, 1)]),
    _stage("LEFT", [("a", 1), ("b", 0)], [(0, 1, 2, 2), (1, 1, 2, -1)],
           residual="t{i}.v > 0"),
    _stage("INNER", [("a", 2)], [(0, 1.0, 0, 0), (1, 1, 0, 1)]),
]})
# a narrowed run: an unselected DESC key over NULLs, a WHERE-only
# column, a repeated item, a LEFT pad read by position
@example({"base": [(0, 1, None, 1), (1, 2, 0, 3), (2, 1, 2, 2)], "stages": [
    _stage("INNER", [("a", 0)], [(0, 1, 5, None), (1, 2.0, 0, 4), (2, 1.0, 3, 7)]),
    _stage("LEFT", [("b", 0)], [(0, 0, 2, 0)]),
], "select": [(2, "b"), (0, "id"), (2, "b")], "where": (1, "v"),
   "order": [((1, "a"), False), ((0, "b"), False)]})
def test_join_run_matches_sqlite_and_the_stagewise_reference(c):
    db = _chain_engine(c)
    sql = render_chain(c)
    expected, examined = finish(c, *stagewise(c))
    theirs = _chain_sqlite(c).execute(sql).fetchall()
    full = db.execute(render_chain({"base": c["base"], "stages": c["stages"]}))
    positions = map(_position, c["select"]) if c.get("select") else range(len(full.columns))
    names_types = [(full.columns[p], full.types[p]) for p in positions]
    # the run built full width (too few rows to narrow), then narrowed
    # wherever the SELECT allows it
    for narrow_min in (executor._NARROW_MIN_ROWS, 0):
        with mock.patch.object(executor, "_NARROW_MIN_ROWS", narrow_min):
            result = db.execute(sql)
        assert repr(result.rows) == repr(expected)
        assert _multiset(result.rows) == _multiset(theirs)
        assert result.stats.join_strategy == ["hash"] * len(c["stages"])
        assert result.stats.rows_examined == examined
        assert list(zip(result.columns, result.types)) == names_types


#: every name a run probe's text may hold, apart from integers
PROBE_NAME = re.compile(r"def|probe|return|for|in|if|rows|(p|get|key|miss|count)\d+")


@pytest.mark.parametrize("sources, picks", [
    ((0,), None),
    ((0, 1, None), ((3, 0), (0, 2), (1, 14), (3, 0))),
    ((0, None), ((2, 1),)),
])
def test_run_probe_text_is_integers_and_fixed_names(sources, picks):
    text = _probe_text(sources, picks)
    assert re.fullmatch(r"[\w\s()\[\],:+]*", text)
    for word in re.findall(r"[A-Za-z_]\w*", text):
        assert PROBE_NAME.fullmatch(word), word
