"""Property: a multi-row SQL INSERT lands as it does in sqlite3.

Random INSERT … VALUES statements run against the engine and against a
sqlite3 ``STRICT`` table of the same shape: NULLs into NOT NULL
columns, keys repeated within and across statements, values a column
cannot hold, and partial column lists. After every statement both hold
the same rows, value types included, and a statement raises in the
engine exactly when it raises in sqlite3. sqlite3 runs each statement
atomically: a row that fails leaves none of the statement's rows
stored.
"""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import IntegrityError, ReproError
from repro.engine import Database

TYPES = ("INT", "REAL", "TEXT")

#: the SQL literals VALUES rows draw from: numbers, numeric and other
#: text, a boolean and NULL
LITERALS = (
    "NULL", "0", "1", "-2", "7", "2.5", "2.0", "1e3", "-0.0", "TRUE",
    "'5'", "'-2'", "' 3 '", "'+4'", "'2.5'", "'1e3'", "'2.0'", "'abc'", "''",
)

#: (literal, column type) pairs the engine coerces differently from a
#: sqlite3 STRICT table; never drawn for a column of that type
COERCION_DIFFERENCES = {
    # the engine truncates a fractional number into an INT; sqlite3 refuses it
    ("2.5", "INT"),
    # sqlite3 reads numeric text with an exponent or a zero fraction as an
    # integer; the engine takes only text in integer-literal form
    ("'1e3'", "INT"),
    ("'2.0'", "INT"),
    # sqlite3 drops the sign of a negative zero
    ("-0.0", "REAL"),
    ("-0.0", "TEXT"),
    # the engine spells a boolean as 'true' in text; sqlite3 stores TRUE as 1
    ("TRUE", "TEXT"),
}


def _literals(sql_type: str) -> list[str]:
    return [lit for lit in LITERALS if (lit, sql_type) not in COERCION_DIFFERENCES]


@st.composite
def tables(draw):
    """``(columns, ddl)``: up to three columns, the first none, one or two
    of them the primary key; key columns are declared NOT NULL, since a
    sqlite3 key column other than a rowid alias takes NULLs otherwise."""
    types = draw(st.lists(st.sampled_from(TYPES), min_size=1, max_size=3))
    key_width = draw(st.integers(0, min(2, len(types))))
    defs = [
        f"c{i} {t}{' NOT NULL' if i < key_width or draw(st.booleans()) else ''}"
        for i, t in enumerate(types)
    ]
    if key_width:
        defs.append(f"PRIMARY KEY ({', '.join(f'c{i}' for i in range(key_width))})")
    columns = [(f"c{i}", t) for i, t in enumerate(types)]
    return columns, f"CREATE TABLE t ({', '.join(defs)})"


@st.composite
def inserts(draw, columns):
    """One INSERT … VALUES of one to four rows, with no column list, all
    columns in some order, or a subset (the rest take NULL)."""
    named = None
    if draw(st.booleans()):
        named = draw(st.permutations(columns))[: draw(st.integers(1, len(columns)))]
    cells = [st.sampled_from(_literals(t)) for _, t in named or columns]
    rows = draw(st.lists(st.tuples(*cells), min_size=1, max_size=4))
    names = "" if named is None else f" ({', '.join(name for name, _ in named)})"
    values = ", ".join(f"({', '.join(row)})" for row in rows)
    return f"INSERT INTO t{names} VALUES {values}"


def _engine_raises(db: Database, sql: str) -> bool:
    try:
        db.execute(sql)
    except ReproError:
        return True
    return False


def _sqlite_raises(conn: sqlite3.Connection, sql: str) -> bool:
    """Run ``sql`` in a savepoint of its own, rolled back if it raises.
    sqlite3 3.40.1 keeps a statement's earlier rows when a later row
    fails a STRICT type check and the table has no other constraint that
    could abort the statement; the savepoint makes that failure whole
    too."""
    conn.execute("SAVEPOINT stmt")
    try:
        conn.execute(sql)
    except sqlite3.Error:
        conn.execute("ROLLBACK TO stmt")
        return True
    finally:
        conn.execute("RELEASE stmt")
    return False


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_insert_stores_and_refuses_what_sqlite_strict_does(data):
    columns, ddl = data.draw(tables())
    db = Database("atomic")
    db.execute(ddl)
    conn = sqlite3.connect(":memory:", isolation_level=None)
    conn.execute(f"{ddl} STRICT")
    table = db.catalog.get_table("t")
    for sql in data.draw(st.lists(inserts(columns), min_size=1, max_size=4)):
        assert _engine_raises(db, sql) == _sqlite_raises(conn, sql), sql
        # repr tells 1, 1.0 and '1' apart
        stored = conn.execute("SELECT * FROM t ORDER BY rowid").fetchall()
        assert repr(table.rows) == repr(stored), sql


def test_failing_row_leaves_the_statement_unstored():
    db = Database("atomic")
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER NOT NULL)")
    with pytest.raises(IntegrityError, match="NOT NULL"):
        db.execute("INSERT INTO t VALUES (1, 1), (2, NULL)")
    assert db.catalog.get_table("t").rows == []
    # nor did its keys: the first row's key is free
    assert db.execute("INSERT INTO t VALUES (1, 1), (2, 2)").rowcount == 2
    assert db.execute("SELECT k, v FROM t").rows == [(1, 1), (2, 2)]
