"""ORDER BY keying, hash-join keys and cached INSERT plans.

ORDER BY sorts row indexes on natively compared keys when a key's
non-NULL values are all numbers or all strings, and wraps each value in
``_SortKey`` otherwise; the property below checks both against a
reference that sorts with ``_SortKey`` alone, on SELECT and on an
output alias. The hash join keys one column by its value and
several by a tuple; both are checked against sqlite3 with NULL keys.
INSERT maps values onto table columns through a plan cached per column
list; the tests check that the plans follow ALTER TABLE, that failed
plans are not kept and that every constraint still applies.
"""

from __future__ import annotations

import math
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    ColumnNotFoundError,
    IntegrityError,
    SQLTypeError,
)
from repro.common.types import SQLType, TypeKind
from repro.engine import Column, Database, TableStorage
from repro.engine.executor import _SortKey

# -- ORDER BY keying ------------------------------------------------------------

_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-3, 3),
    # integral floats tie with ints (1 vs 1.0); -0.0 ties with 0.0
    "float": st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    ),
    "str": st.sampled_from(["", "a", "B", "b", "ab", "1", "10", "2"]),
}
_VALUES["number"] = st.one_of(_VALUES["int"], _VALUES["float"])
_VALUES["mixed"] = st.one_of(*_VALUES.values())


@st.composite
def tables(draw):
    """Rows ``(id, c0, c1, c2)``; each ``c`` column draws from one value
    kind, with NULLs mixed in."""
    kinds = [draw(st.sampled_from(sorted(_VALUES))) for _ in range(3)]
    columns = [
        st.one_of(st.none(), _VALUES[kind]) if kind != "null" else st.none()
        for kind in kinds
    ]
    n = draw(st.integers(0, 12))
    return [
        (i, *(draw(column) for column in columns)) for i in range(n)
    ]


order_keys = st.lists(
    st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=3
)


def reference_sort(rows, keys):
    """The order ``_SortKey`` alone gives: stable passes, last key first."""
    out = list(rows)
    for idx, ascending in reversed(keys):
        out.sort(key=lambda r, i=idx: _SortKey(r[1 + i]), reverse=not ascending)
    return out


def _db_with(rows) -> Database:
    db = Database("order_db")
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, c0 TEXT, c1 TEXT, c2 TEXT)")
    # stored as drawn, past the write path's coercion, so one column can
    # mix value types
    db.catalog.get_table("t").rows = list(rows)
    return db


def _order_by(keys, name) -> str:
    return ", ".join(f"{name}{i} {'ASC' if asc else 'DESC'}" for i, asc in keys)


@settings(max_examples=150, deadline=None)
@given(tables(), order_keys)
def test_order_by_matches_sortkey(rows, keys):
    db = _db_with(rows)
    expected = reference_sort(rows, keys)
    plain = db.execute(f"SELECT id, c0, c1, c2 FROM t ORDER BY {_order_by(keys, 'c')}")
    assert plain.rows == expected
    aliased = db.execute(
        "SELECT id, c0 AS k0, c1 AS k1, c2 AS k2 FROM t "
        f"ORDER BY {_order_by(keys, 'k')}"
    )
    assert aliased.rows == expected


def test_order_by_ties_int_and_float_and_keeps_input_order():
    rows = [(0, 1.0, None, None), (1, 1, None, None), (2, None, None, None),
            (3, 0.5, None, None), (4, 1, None, None)]
    db = _db_with(rows)
    asc = db.execute("SELECT id FROM t ORDER BY c0").rows
    assert asc == [(3,), (0,), (1,), (4,), (2,)]
    desc = db.execute("SELECT id FROM t ORDER BY c0 DESC").rows
    assert desc == [(2,), (0,), (1,), (4,), (3,)]


def test_order_by_mixed_types_falls_back_to_sortkey():
    rows = [(0, "b", None, None), (1, 2, None, None), (2, True, None, None),
            (3, None, None, None), (4, "10", None, None)]
    db = _db_with(rows)
    got = db.execute("SELECT id FROM t ORDER BY c0").rows
    assert got == [(r[0],) for r in reference_sort(rows, [(0, True)])]


# -- hash-join keys ------------------------------------------------------------------

_JOIN_ROWS = {
    "l": [(1, 1, "a"), (2, None, "b"), (3, 2, None), (None, None, "c"), (1, 1, "d")],
    "r": [(1, 1, "x"), (None, 1, "y"), (2, None, "z"), (3, 2, "w"), (1, 1, "v")],
}


@pytest.mark.parametrize("on", [
    "l.a = r.a",
    "l.a = r.a AND l.b = r.b",
    "l.a = r.a AND l.b = r.b AND l.s < r.s",
])
@pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN"])
def test_hash_join_keys_match_sqlite(on, kind):
    db = Database("join_db")
    conn = sqlite3.connect(":memory:")
    for name, rows in _JOIN_ROWS.items():
        for target in (db, conn):
            target.execute(f"CREATE TABLE {name} (a INT, b INT, s VARCHAR(4))")
            for row in rows:
                target.execute(f"INSERT INTO {name} VALUES (?, ?, ?)", row)
    sql = f"SELECT l.a, l.b, l.s, r.s FROM l {kind} r ON {on}"
    result = db.execute(sql)
    assert result.stats.join_strategy == ["hash"]
    expected = conn.execute(sql).fetchall()
    assert sorted(result.rows, key=repr) == sorted(expected, key=repr)


# -- INSERT plans -----------------------------------------------------------------


def test_insert_rejects_a_column_named_twice():
    db = Database("dup_db")
    db.execute("CREATE TABLE t (a INT, b INT)")
    with pytest.raises(IntegrityError, match="named twice"):
        db.execute("INSERT INTO t (a, A) VALUES (1, 2)")
    storage = db.catalog.get_table("t")
    with pytest.raises(IntegrityError, match="named twice"):
        storage.insert([1, 2], ["b", "B"])
    with pytest.raises(IntegrityError, match="named twice"):
        storage.append_rows([[1, 2]], ["a", "a"])
    assert storage.rows == []


def test_insert_plans_follow_add_column():
    db = Database("plan_db")
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT NOT NULL, b DOUBLE)")
    storage = db.catalog.get_table("t")
    db.execute("INSERT INTO t (id, a) VALUES (1, 10)")
    # every column in table order: the values need no reordering
    db.execute("INSERT INTO t (id, a, b) VALUES (0, 0, 0.25)")
    db.execute("ALTER TABLE t ADD COLUMN c VARCHAR(8) DEFAULT 'x'")
    db.execute("INSERT INTO t (id, a) VALUES (2, 20)")
    db.execute("INSERT INTO t (id, a, b) VALUES (6, 60, 0.75)")
    db.execute("INSERT INTO t VALUES (3, 30, 0.5, 'y')")
    db.execute("ALTER TABLE t ADD COLUMN d INT DEFAULT 9")
    db.execute("INSERT INTO t (id, a) VALUES (4, 40)")
    db.execute("INSERT INTO t VALUES (5, 50, 1.5, 'z', 8)")
    db.execute("INSERT INTO t (c, a, id) VALUES ('w', 70, 7)")
    assert storage.rows == [
        (1, 10, None, "x", 9), (0, 0, 0.25, "x", 9), (2, 20, None, "x", 9),
        (6, 60, 0.75, "x", 9), (3, 30, 0.5, "y", 9), (4, 40, None, "x", 9),
        (5, 50, 1.5, "z", 8), (7, 70, None, "w", 9),
    ]
    with pytest.raises(IntegrityError, match="expects 5 values"):
        db.execute("INSERT INTO t VALUES (6, 60, 0.5, 'w')")


def test_failed_insert_plans_are_not_cached():
    db = Database("plan_db")
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT)")
    for _ in range(2):
        with pytest.raises(ColumnNotFoundError):
            db.execute("INSERT INTO t (id, zz) VALUES (1, 1)")
    db.execute("ALTER TABLE t ADD COLUMN zz INT")
    db.execute("INSERT INTO t (id, zz) VALUES (1, 1)")
    assert db.catalog.get_table("t").rows == [(1, None, 1)]


def test_cached_plans_keep_every_check():
    storage = TableStorage(
        "t",
        [
            Column("id", SQLType.integer(), primary_key=True),
            Column("a", SQLType.integer(), not_null=True, default=7, has_default=True),
            Column("v", SQLType.double(), not_null=True),
            Column("s", SQLType(TypeKind.CHAR, length=3)),
        ],
    )
    columns = ["id", "v", "s"]
    assert storage.insert((1, "2.5", "ab"), columns) == (1, 7, 2.5, "ab ")
    with pytest.raises(IntegrityError, match="NOT NULL"):
        storage.insert((2, None, "ab"), columns)
    with pytest.raises(SQLTypeError):
        storage.insert((2, math.nan, "ab"), columns)
    with pytest.raises(SQLTypeError):
        storage.insert((2, 1.0, "abcd"), columns)
    with pytest.raises(IntegrityError, match="duplicate primary key"):
        storage.insert((1, 1.0, None), columns)
    with pytest.raises(IntegrityError, match="NOT NULL"):
        storage.insert((2, None, 1.0, None))
    assert storage.insert((2, 1.0, None), columns) == (2, 7, 1.0, None)
    assert len(storage.rows) == 2


def test_insert_plans_stay_bounded():
    names = [f"c{i}" for i in range(5)]
    storage = TableStorage("t", [Column(n, SQLType.integer()) for n in names])
    orders = [
        [names[(start + i) % 5] for i in range(5)][:width]
        for start in range(5) for width in range(1, 6)
    ]
    orders += [[n.upper() for n in order] for order in orders]
    orders += [list(reversed(order)) for order in orders]
    for order in orders:
        row = storage.insert([names.index(n.lower()) for n in order], order)
        assert row == tuple(i if n in {o.lower() for o in order} else None
                            for i, n in enumerate(names))
    assert len(orders) > 64 and len(storage._plans) <= 64
