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
