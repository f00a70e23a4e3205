"""Unit tests for storage, catalog and the Database facade (DDL/DML)."""

import pytest

from repro.common import SQLType, TableNotFoundError
from repro.common.errors import DuplicateObjectError, IntegrityError
from repro.engine import Column, Database, TableStorage


@pytest.fixture
def db():
    d = Database("testdb", "mysql")
    d.execute(
        "CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR(40), "
        "dept VARCHAR(10), salary DOUBLE)"
    )
    d.execute(
        "INSERT INTO emp (id, name, dept, salary) VALUES "
        "(1,'ann','hr',100.0),(2,'bob','it',200.0),(3,'cho','it',150.0),"
        "(4,'dee','fin',NULL)"
    )
    return d


class TestTableStorage:
    def test_insert_coerces_types(self):
        t = TableStorage("t", [Column("a", SQLType.integer()), Column("b", SQLType.varchar(10))])
        row = t.insert(["5", 42])
        assert row == (5, "42")

    def test_pk_uniqueness_enforced(self):
        t = TableStorage("t", [Column("id", SQLType.integer(), primary_key=True, not_null=True)])
        t.insert([1])
        with pytest.raises(IntegrityError):
            t.insert([1])

    def test_not_null_enforced(self):
        t = TableStorage("t", [Column("a", SQLType.integer(), not_null=True)])
        with pytest.raises(IntegrityError):
            t.insert([None])

    def test_partial_insert_applies_defaults(self):
        t = TableStorage(
            "t",
            [
                Column("a", SQLType.integer()),
                Column("b", SQLType.varchar(5), default="x", has_default=True),
            ],
        )
        assert t.insert([1], ["a"]) == (1, "x")

    def test_partial_insert_unknown_column_raises(self):
        t = TableStorage("t", [Column("a", SQLType.integer())])
        with pytest.raises(Exception):
            t.insert([1], ["zzz"])

    def test_wrong_arity_raises(self):
        t = TableStorage("t", [Column("a", SQLType.integer())])
        with pytest.raises(IntegrityError):
            t.insert([1, 2])

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(DuplicateObjectError):
            TableStorage("t", [Column("a", SQLType.integer()), Column("A", SQLType.integer())])

    def test_pk_point_lookup(self):
        t = TableStorage("t", [Column("id", SQLType.integer(), primary_key=True)])
        t.insert([7])
        # the key index holds 7 and not 8
        with pytest.raises(IntegrityError):
            t.insert([7])
        t.insert([8])
        assert t.rows == [(7,), (8,)]

    def test_range_index_lookup(self):
        t = TableStorage(
            "t", [Column("a", SQLType.integer(), primary_key=True), Column("b", SQLType.integer())]
        )
        t.insert([2, 10])
        t.insert([1, 20])
        assert t.range_column == "a"
        keys, positions = t.sorted_index()
        assert keys == [1, 2] and positions == [1, 0]

    def test_index_invalidated_on_insert(self):
        t = TableStorage("t", [Column("a", SQLType.integer(), primary_key=True)])
        t.insert([1])
        first, _ = t.sorted_index()
        t.insert([2])
        second, _ = t.sorted_index()
        assert 2 in second and 2 not in first

    def test_add_column_backfills(self):
        t = TableStorage("t", [Column("a", SQLType.integer())])
        t.insert([1])
        t.add_column(Column("b", SQLType.varchar(5), default="x", has_default=True))
        assert t.rows == [(1, "x")]

    def test_add_not_null_without_default_on_nonempty_raises(self):
        t = TableStorage("t", [Column("a", SQLType.integer())])
        t.insert([1])
        with pytest.raises(IntegrityError):
            t.add_column(Column("b", SQLType.integer(), not_null=True))


class TestDatabaseDDL:
    def test_create_and_drop_table(self):
        db = Database("x")
        db.execute("CREATE TABLE t (a INT)")
        assert db.catalog.has_table("t")
        db.catalog.drop_table("t")  # how a mart view is re-materialized
        assert not db.catalog.has_table("t")
        with pytest.raises(TableNotFoundError):
            db.catalog.drop_table("t")

    def test_create_duplicate_raises(self):
        db = Database("x")
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(DuplicateObjectError):
            db.execute("CREATE TABLE t (a INT)")

    def test_case_insensitive_table_names(self, db):
        assert db.execute("SELECT COUNT(*) FROM EMP").rows == [(4,)]

    def test_create_view_and_query(self, db):
        db.execute("CREATE VIEW it AS SELECT name FROM emp WHERE dept = 'it'")
        rows = db.execute("SELECT * FROM it ORDER BY name").rows
        assert rows == [("bob",), ("cho",)]

    def test_view_reflects_underlying_changes(self, db):
        db.execute("CREATE VIEW it AS SELECT name FROM emp WHERE dept = 'it'")
        db.execute("INSERT INTO emp (id, name, dept) VALUES (9, 'zed', 'it')")
        assert db.execute("SELECT COUNT(*) FROM it").rows == [(3,)]

    def test_view_name_collision_with_table(self, db):
        with pytest.raises(DuplicateObjectError):
            db.execute("CREATE VIEW emp AS SELECT 1")


class TestDatabaseDML:
    def test_bulk_insert_bypasses_parser(self, db):
        n = db.bulk_insert("emp", [[10, "x", "qa", 1.0], [11, "y", "qa", 2.0]])
        assert n == 2
        assert db.execute("SELECT COUNT(*) FROM emp").rows == [(6,)]


class TestSelectSemantics:
    def test_where_null_mismatch_filtered(self, db):
        # dee has NULL salary: neither > nor <= matches
        high = db.execute("SELECT COUNT(*) FROM emp WHERE salary > 120").rows[0][0]
        low = db.execute("SELECT COUNT(*) FROM emp WHERE salary <= 120").rows[0][0]
        assert high + low == 3

    def test_order_by_nulls_last_asc(self, db):
        rows = db.execute("SELECT name FROM emp ORDER BY salary").rows
        assert rows[-1] == ("dee",)

    def test_order_by_desc_nulls_first(self, db):
        rows = db.execute("SELECT name FROM emp ORDER BY salary DESC").rows
        assert rows[0] == ("dee",)

    def test_limit_offset(self, db):
        rows = db.execute("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 1").rows
        assert rows == [(2,), (3,)]

    def test_distinct(self, db):
        rows = db.execute("SELECT DISTINCT dept FROM emp ORDER BY dept").rows
        assert rows == [("fin",), ("hr",), ("it",)]

    def test_select_star_columns(self, db):
        r = db.execute("SELECT * FROM emp")
        assert r.columns == ["id", "name", "dept", "salary"]

    def test_qualified_star(self, db):
        r = db.execute("SELECT e.* FROM emp e")
        assert len(r.columns) == 4

    def test_aggregates_on_empty_input(self, db):
        r = db.execute("SELECT COUNT(*), SUM(salary), MIN(salary) FROM emp WHERE id > 99")
        assert r.rows == [(0, None, None)]

    def test_count_ignores_nulls(self, db):
        assert db.execute("SELECT COUNT(salary) FROM emp").rows == [(3,)]

    def test_count_distinct(self, db):
        assert db.execute("SELECT COUNT(DISTINCT dept) FROM emp").rows == [(3,)]

    def test_group_by_having(self, db):
        rows = db.execute(
            "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept HAVING n > 1"
        ).rows
        assert rows == [("it", 2)]

    def test_expression_over_aggregate(self, db):
        rows = db.execute(
            "SELECT dept, MAX(salary) - MIN(salary) AS spread FROM emp "
            "WHERE salary IS NOT NULL GROUP BY dept ORDER BY dept"
        ).rows
        assert ("it", 50.0) in rows

    def test_bare_column_not_in_group_by_raises(self, db):
        from repro.common import PlanningError

        with pytest.raises(PlanningError):
            db.execute("SELECT name, COUNT(*) FROM emp GROUP BY dept")

    def test_scalar_select(self, db):
        assert db.execute("SELECT 2 * 3 AS x").rows == [(6,)]

    def test_params_flow_through(self, db):
        rows = db.execute("SELECT name FROM emp WHERE dept = ? ORDER BY id", ("it",)).rows
        assert rows == [("bob",), ("cho",)]

    def test_mssql_top_syntax_runs(self, db):
        rows = db.execute("SELECT TOP 2 id FROM emp ORDER BY id").rows
        assert rows == [(1,), (2,)]

    def test_stats_rows_examined(self, db):
        r = db.execute("SELECT * FROM emp WHERE salary > 0")
        assert r.stats.rows_examined >= 4
        assert r.stats.tables_accessed == ["emp"]


class TestJoinSemantics:
    @pytest.fixture
    def jdb(self, db):
        db.execute("CREATE TABLE dept (code VARCHAR(10) PRIMARY KEY, label VARCHAR(30))")
        db.execute("INSERT INTO dept VALUES ('hr','HumanRes'),('it','Infotech')")
        return db

    def test_inner_join_uses_hash_strategy(self, jdb):
        r = jdb.execute("SELECT e.name FROM emp e JOIN dept d ON e.dept = d.code")
        assert r.stats.join_strategy == ["hash"]
        assert r.row_count == 3  # fin has no dept row

    def test_left_join_pads_nulls(self, jdb):
        r = jdb.execute(
            "SELECT e.name, d.label FROM emp e LEFT JOIN dept d ON e.dept = d.code "
            "ORDER BY e.id"
        )
        assert r.rows[-1] == ("dee", None)

    def test_join_on_expression_falls_back_to_nested_loop(self, jdb):
        r = jdb.execute(
            "SELECT COUNT(*) FROM emp e JOIN dept d ON e.salary > 120 AND e.dept = d.code"
        )
        # equi conjunct extracted -> hash join with residual (bob, cho)
        assert r.rows == [(2,)]

    def test_pure_inequality_join_nested_loop(self, jdb):
        r = jdb.execute("SELECT COUNT(*) FROM emp e JOIN emp f ON e.salary < f.salary")
        assert r.stats.join_strategy == ["nested-loop"]
        assert r.rows == [(3,)]

    def test_cross_join(self, jdb):
        r = jdb.execute("SELECT COUNT(*) FROM emp CROSS JOIN dept")
        assert r.rows == [(8,)]

    def test_comma_join_with_where(self, jdb):
        r = jdb.execute(
            "SELECT COUNT(*) FROM emp e, dept d WHERE e.dept = d.code"
        )
        assert r.rows == [(3,)]

    def test_self_join_with_aliases(self, jdb):
        r = jdb.execute(
            "SELECT a.name, b.name FROM emp a JOIN emp b ON a.id = b.id WHERE a.id = 1"
        )
        assert r.rows == [("ann", "ann")]

    def test_null_keys_never_match_in_hash_join(self, jdb):
        jdb.execute("INSERT INTO emp (id, name, dept) VALUES (20, 'nul', NULL)")
        jdb.execute("CREATE TABLE tags (dept VARCHAR(10), tag VARCHAR(10))")
        jdb.execute("INSERT INTO tags VALUES (NULL, 'ghost'), ('it', 'tech')")
        r = jdb.execute("SELECT COUNT(*) FROM emp e JOIN tags t ON e.dept = t.dept")
        assert r.rows == [(2,)]  # only bob and cho match 'it'; NULLs never join

    def test_three_way_join(self, jdb):
        jdb.execute("CREATE TABLE site (dept VARCHAR(10), city VARCHAR(20))")
        jdb.execute("INSERT INTO site VALUES ('it','geneva'),('hr','pasadena')")
        r = jdb.execute(
            "SELECT e.name, s.city FROM emp e "
            "JOIN dept d ON e.dept = d.code JOIN site s ON d.code = s.dept "
            "ORDER BY e.name"
        )
        assert r.rows == [
            ("ann", "pasadena"),
            ("bob", "geneva"),
            ("cho", "geneva"),
        ]
