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
chain's rows must equal a stagewise reference (one join at a time, as
above) in order and sqlite3 3.40.1 as a multiset, and its
``rows_examined`` and ``join_strategy`` must be the stagewise values:
each stage charges its input rows and its build rows.
"""

from __future__ import annotations

import sqlite3

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Database

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
    return {"base": draw(sides(False)), "stages": stages}


def render_chain(c) -> str:
    sql = "SELECT * FROM t0"
    for i, stage in enumerate(c["stages"], start=1):
        conjuncts = [
            f"t{j}.{col} = t{i}.{col}" if stage["flipped"] else f"t{i}.{col} = t{j}.{col}"
            for col, j in stage["keys"]
        ]
        if stage["residual"] is not None:
            conjuncts.append(stage["residual"].format(i=i))
        sql += f" {stage['kind']} JOIN t{i} ON {' AND '.join(conjuncts)}"
    return sql


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
def test_join_run_matches_sqlite_and_the_stagewise_reference(c):
    result = _chain_engine(c).execute(render_chain(c))
    expected, examined = stagewise(c)
    assert repr(result.rows) == repr(expected)
    theirs = _chain_sqlite(c).execute(render_chain(c)).fetchall()
    assert _multiset(result.rows) == _multiset(theirs)
    assert result.stats.join_strategy == ["hash"] * len(c["stages"])
    assert result.stats.rows_examined == examined
