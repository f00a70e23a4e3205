"""The sorted-index access path against a forced scan and against sqlite3.

A single-table SELECT whose WHERE bounds a single-column numeric primary
key reads only the rows a bisect of the key's sorted index selects.
These tests run the same statements three ways — on a :class:`Database`
(index path), through a resolver that offers only ``resolve_table`` (the
executor must scan) and on stdlib ``sqlite3`` — and require the same
rows in the same order, the same logical ``rows_examined`` and the same
errors, before and after appends and wholesale row replacements.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ReproError, SQLTypeError
from repro.common.types import sql_repr
from repro.engine import Database
from repro.engine.executor import SelectExecutor
from repro.sql.parser import parse_statement

DDL = "CREATE TABLE t (pk INT PRIMARY KEY, a INT, b DOUBLE, s VARCHAR(8))"


class ScanOnly:
    """A resolver with no ``base_table``: the executor cannot see indexes."""

    def __init__(self, db: Database):
        self.db = db

    def resolve_table(self, name):
        return self.db.resolve_table(name)


def _outcome(run):
    try:
        result = run()
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc)), None
    return ("rows", result.rows), result.stats


def _sqlite_rows(conn, sql, params):
    return conn.execute(sql, params).fetchall()


def _multiset(rows):
    return sorted(rows, key=lambda r: [(v is None, 0 if v is None else v) for v in r])


def check_query(
    db: Database, conn, sql: str, params: tuple, ordered: bool, pk_range: bool
) -> None:
    stmt = parse_statement(sql)
    indexed, istats = _outcome(lambda: db.execute(sql, params))
    scanned, sstats = _outcome(
        lambda: SelectExecutor(ScanOnly(db), params).execute(stmt)
    )
    assert indexed == scanned, sql
    if istats is None:
        return
    assert istats.rows_examined == sstats.rows_examined, sql
    assert sstats.rows_visited == sstats.rows_examined
    assert istats.rows_visited <= istats.rows_examined
    if pk_range:
        # a WHERE of key bounds only: the index yields exactly the answer,
        # visited once by the access path and once by the filter
        assert istats.rows_visited == 2 * len(indexed[1]), sql
    expected = _sqlite_rows(conn, sql, params)
    got = indexed[1]
    if ordered:
        assert got == expected, sql
    else:
        assert _multiset(got) == _multiset(expected), sql


# -- strategies ---------------------------------------------------------------------

_ints = st.integers(min_value=-20, max_value=20)
_halves = st.integers(min_value=-40, max_value=40).map(lambda n: n / 2)
_numbers = st.one_of(_ints, _halves)


@st.composite
def tables(draw):
    keys = draw(st.lists(_ints, unique=True, max_size=25))
    rows = []
    for pk in keys:
        rows.append((
            pk,
            draw(st.one_of(st.none(), st.integers(-5, 5))),
            draw(st.one_of(st.none(), _halves)),
            draw(st.one_of(st.none(), st.sampled_from(["x", "y", "zz"]))),
        ))
    return rows


@st.composite
def bound(draw, params: list):
    """A numeric operand: a literal, or ``?`` with its value in ``params``."""
    value = draw(_numbers)
    if draw(st.booleans()):
        params.append(value)
        return "?"
    return sql_repr(value)


@st.composite
def conjunct(draw, params: list):
    """``(sql, bounds pk)``: one WHERE term, and whether it is a key bound
    on the primary key."""
    column = draw(st.sampled_from(["pk", "pk", "pk", "a"]))
    kind = draw(st.sampled_from(
        ["cmp", "flipped", "between", "other", "other"]
    ))
    key = column == "pk"
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "<", "<=", ">", ">="]))
        return f"{column} {op} {draw(bound(params))}", key
    if kind == "flipped":
        op = draw(st.sampled_from(["=", "<", "<=", ">", ">="]))
        return f"{draw(bound(params))} {op} {column}", key
    if kind == "between":
        low = draw(bound(params))
        high = draw(bound(params))
        return f"{column} BETWEEN {low} AND {high}", key
    return draw(st.sampled_from([
        "b > 1.5",
        "b <= 0",
        "s = 'x'",
        "s <> 'zz'",
        "a IS NULL",
        "b IS NOT NULL",
        "pk <> 3",
        "pk IN (1, 2, -4)",
        "NOT (pk < 3)",
        "(pk < 3 OR b > 0)",
        "pk NOT BETWEEN -2 AND 2",
        "pk + 0 <= 4",
        "a = pk",
    ])), False


@st.composite
def queries(draw):
    params: list = []
    terms = draw(st.lists(conjunct(params), min_size=1, max_size=3))
    items = draw(st.sampled_from(["*", "pk, b", "s, pk", "COUNT(*), SUM(a)"]))
    alias = draw(st.sampled_from(["", " AS q"]))
    order = draw(st.sampled_from(["", " ORDER BY pk", " ORDER BY pk DESC"]))
    if items.startswith("COUNT"):
        order = ""
    where = " AND ".join(term for term, _ in terms)
    sql = f"SELECT {items} FROM t{alias} WHERE {where}{order}"
    aggregate = items.startswith("COUNT")
    pk_range = all(key for _, key in terms) and not aggregate
    return sql, tuple(params), bool(order) or aggregate, pk_range


def _load(rows):
    db = Database("ap", "generic")
    db.execute(DDL)
    conn = sqlite3.connect(":memory:")
    conn.execute(DDL)
    db.catalog.get_table("t").append_rows([list(r) for r in rows])
    conn.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    return db, conn


#: sqlite3 runs each statement; the engine's table then takes sqlite3's
#: rows, in storage order, through ``TableStorage.replace_rows``
MUTATIONS = [
    ("append", None),
    ("DELETE FROM t WHERE pk < ?", (0,)),
    ("UPDATE t SET pk = pk + 100 WHERE pk > ?", (5,)),
    ("UPDATE t SET a = a - 3 WHERE b > ?", (0.5,)),
    ("DELETE FROM t", ()),
]


class TestAgainstScanAndSqlite:
    @settings(max_examples=60, deadline=None)
    @given(tables(), st.lists(queries(), min_size=1, max_size=4))
    def test_same_rows_stats_and_errors_through_mutations(self, rows, qs):
        db, conn = _load(rows)
        table = db.catalog.get_table("t")
        next_pk = 1000
        for mutation, params in [(None, None)] + MUTATIONS:
            if mutation == "append":
                extra = [(next_pk + i, i - 2, i / 2, "x") for i in range(4)]
                next_pk += 10
                table.append_rows([list(r) for r in extra])
                conn.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", extra)
            elif mutation is not None:
                conn.execute(mutation, params)
                table.replace_rows(conn.execute("SELECT * FROM t ORDER BY rowid").fetchall())
            for query in qs:
                check_query(db, conn, *query)


class TestStaticErrorsUnchanged:
    @pytest.fixture
    def db(self):
        db, _conn = _load([(i, i % 3, i / 2, "x") for i in range(10)])
        return db

    @pytest.mark.parametrize("sql, params", [
        ("SELECT pk FROM t WHERE pk <= ? AND zz = 1", (3,)),
        ("SELECT pk FROM t WHERE pk <= ?", ()),
        ("SELECT pk FROM t WHERE pk <= 3 AND s > 4", ()),
        ("SELECT nope FROM t WHERE pk = 1", ()),
    ])
    def test_error_matches_scan(self, db, sql, params):
        indexed, _ = _outcome(lambda: db.execute(sql, params))
        scanned, _ = _outcome(
            lambda: SelectExecutor(ScanOnly(db), params).execute(parse_statement(sql))
        )
        assert indexed[0] == "error"
        assert indexed == scanned


class TestAccessPathChoice:
    def _db(self, n=50):
        db = Database("ap", "generic")
        db.execute(DDL)
        db.catalog.get_table("t").append_rows(
            [[n - i, i % 7, i / 4, "x"] for i in range(n)]
        )
        return db

    def test_range_visits_only_candidates_in_storage_order(self):
        db = self._db()
        result = db.execute("SELECT pk FROM t WHERE pk <= 5")
        # pk was loaded descending: storage order, not key order
        assert result.rows == [(5,), (4,), (3,), (2,), (1,)]
        assert result.stats.rows_examined == 100  # scan + filter, logical
        assert result.stats.rows_visited == 10

    def test_subquery_in_where_keeps_scanning(self):
        # The inner SELECT runs when the first outer row is evaluated and
        # charges its rows then. Narrowing the outer table to no rows
        # would skip it and change rows_examined (and simulated ms).
        db = self._db()
        sql = "SELECT pk FROM t WHERE pk < -1000 AND b IN (SELECT b FROM t)"
        result = db.execute(sql)
        assert result.rows == []
        assert result.stats.rows_examined == 150  # outer scan + filter + inner
        assert result.stats.rows_visited == result.stats.rows_examined

    def test_replace_rows_refuses_an_uncoercible_key(self):
        db = self._db(5)
        table = db.catalog.get_table("t")
        rows, keys = list(table.rows), dict(table._pk_index)
        with pytest.raises(SQLTypeError, match="not a numeric literal"):
            table.replace_rows(table.rows + [("x", 0, 0.0, "x")])
        assert table.rows == rows and table._pk_index == keys

    def test_non_numeric_key_falls_back_to_scan(self):
        db = Database("ap", "generic")
        db.execute(DDL)
        table = db.catalog.get_table("t")
        # rows assigned past the write path: a key the INT column would
        # never coerce to
        table.rows = [(1, 0, 0.0, "x"), ("x", 0, 0.0, "x")]
        assert table.range_column == "pk" and table.sorted_index() is None
        # the scan compares the row's 'x' with 1, as it would unindexed
        with pytest.raises(SQLTypeError, match="cannot compare str with int"):
            db.execute("SELECT pk FROM t WHERE pk = 1")


class TestExplainTable1:
    """The sub-queries the Table-1 classes push to each mart, as the
    federated EXPLAIN lists them, executed on their mart."""

    @pytest.fixture(scope="class")
    def testbed(self):
        from repro.hep.testbed import build_paper_testbed

        tb = build_paper_testbed()
        directory = tb.federation.directory
        databases = {}
        for url in directory.urls():
            database = directory.lookup(url).database
            databases[database.name] = database
        return tb, databases

    @pytest.mark.parametrize("query, bound", [
        ("QUERY_LOCAL", 15),
        ("QUERY_DISTRIBUTED_1SRV", 100),
        ("QUERY_DISTRIBUTED_2SRV", 100),
    ])
    def test_ntuple_subqueries_use_the_key_range(self, testbed, query, bound):
        tb, databases = testbed
        plan = tb.server1.service.explain(getattr(tb, query))
        marts = set()
        for sub in plan["subqueries"]:
            database = databases[sub["database"]]
            stats = database.execute(sub["sql"]).stats
            mart = sub["database"].split("_db_")[0]
            marts.add(mart)
            table = database.catalog.get_table(mart.upper())
            if mart == "ntuple":
                # only the rows of EVENT_ID's range (-inf, bound] are read,
                # then re-checked; the logical count is a scan's
                assert table.range_column == "EVENT_ID"
                pos = table.column_position("EVENT_ID")
                in_range = sum(1 for row in table.rows if row[pos] <= bound)
                assert 0 < in_range < table.row_count
                assert stats.rows_visited == 2 * in_range
                assert stats.rows_examined == 2 * table.row_count
            else:
                assert mart == "runmeta" and table.row_count == 150
                assert stats.rows_visited == stats.rows_examined == 150
        assert "ntuple" in marts