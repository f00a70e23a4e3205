"""Edge-case tests for the engine executor and views."""

import pytest

from repro.common import PlanningError, SQLTypeError
from repro.common.errors import ColumnNotFoundError
from repro.engine import Database


@pytest.fixture
def db():
    d = Database("edge", "generic")
    d.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, grp VARCHAR(4), x DOUBLE, s VARCHAR(16))"
    )
    d.execute(
        "INSERT INTO t VALUES "
        "(1,'a',1.5,'alpha'),(2,'a',2.5,'Beta'),(3,'b',NULL,'gamma'),"
        "(4,'b',4.5,NULL),(5,NULL,5.5,'epsilon')"
    )
    return d


class TestScalarFunctions:
    def test_round_with_digits(self, db):
        assert db.execute("SELECT ROUND(x, 0) FROM t WHERE id = 1").rows == [(2.0,)]

    def test_substr_without_length(self, db):
        assert db.execute("SELECT SUBSTR(s, 3) FROM t WHERE id = 1").rows == [("pha",)]

    def test_nested_functions(self, db):
        r = db.execute("SELECT UPPER(SUBSTR(s, 1, 2)) FROM t WHERE id = 2")
        assert r.rows == [("BE",)]

    def test_function_on_null_returns_null(self, db):
        assert db.execute("SELECT LENGTH(s) FROM t WHERE id = 4").rows == [(None,)]

    def test_coalesce_in_projection(self, db):
        r = db.execute("SELECT COALESCE(x, -1) FROM t ORDER BY id")
        assert r.rows[2] == (-1,)

    def test_concat_with_null_is_null(self, db):
        assert db.execute("SELECT s || '!' FROM t WHERE id = 4").rows == [(None,)]


class TestCaseAndCast:
    def test_case_in_where(self, db):
        r = db.execute(
            "SELECT id FROM t WHERE CASE WHEN grp = 'a' THEN 1 ELSE 0 END = 1 "
            "ORDER BY id"
        )
        assert r.rows == [(1,), (2,)]

    def test_case_in_aggregate(self, db):
        r = db.execute(
            "SELECT SUM(CASE WHEN grp = 'a' THEN 1 ELSE 0 END) FROM t"
        )
        assert r.rows == [(2,)]

    def test_cast_text_to_int(self, db):
        assert db.execute("SELECT CAST('42' AS INTEGER)").rows == [(42,)]

    def test_cast_failure_raises(self, db):
        with pytest.raises(SQLTypeError):
            db.execute("SELECT CAST(s AS INTEGER) FROM t WHERE id = 1")

    def test_cast_null_passes(self, db):
        assert db.execute("SELECT CAST(x AS INTEGER) FROM t WHERE id = 3").rows == [(None,)]


class TestGroupingEdges:
    def test_group_by_null_forms_its_own_group(self, db):
        r = db.execute("SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp")
        groups = dict(r.rows)
        assert groups["a"] == 2 and groups["b"] == 2 and groups[None] == 1

    def test_group_by_expression(self, db):
        r = db.execute(
            "SELECT id % 2 AS parity, COUNT(*) AS n FROM t GROUP BY id % 2 "
            "ORDER BY parity"
        )
        assert r.rows == [(0, 2), (1, 3)]

    def test_avg_skips_nulls(self, db):
        r = db.execute("SELECT AVG(x) FROM t WHERE grp = 'b'")
        assert r.rows == [(4.5,)]

    def test_min_max_on_strings(self, db):
        r = db.execute("SELECT MIN(s), MAX(s) FROM t")
        assert r.rows == [("Beta", "gamma")]

    def test_having_without_group_by(self, db):
        r = db.execute("SELECT COUNT(*) FROM t HAVING COUNT(*) > 3")
        assert r.rows == [(5,)]
        r2 = db.execute("SELECT COUNT(*) FROM t HAVING COUNT(*) > 10")
        assert r2.rows == []

    def test_sum_distinct(self, db):
        db.execute("INSERT INTO t VALUES (6,'c',1.5,'dup')")
        r = db.execute("SELECT SUM(DISTINCT x) FROM t WHERE x = 1.5")
        assert r.rows == [(1.5,)]


class TestViews:
    def test_view_over_view(self, db):
        db.execute("CREATE VIEW v1 AS SELECT id, x FROM t WHERE x IS NOT NULL")
        db.execute("CREATE VIEW v2 AS SELECT id FROM v1 WHERE x > 2")
        r = db.execute("SELECT COUNT(*) FROM v2")
        assert r.rows == [(3,)]

    def test_view_with_join(self, db):
        db.execute("CREATE TABLE g (grp VARCHAR(4) PRIMARY KEY, label VARCHAR(8))")
        db.execute("INSERT INTO g VALUES ('a','first'),('b','second')")
        db.execute(
            "CREATE VIEW joined AS SELECT t.id, g.label FROM t "
            "JOIN g ON t.grp = g.grp"
        )
        assert db.execute("SELECT COUNT(*) FROM joined").rows == [(4,)]

    def test_view_with_aggregate(self, db):
        db.execute(
            "CREATE VIEW sums AS SELECT grp, SUM(x) AS total FROM t GROUP BY grp"
        )
        r = db.execute("SELECT total FROM sums WHERE grp = 'a'")
        assert r.rows == [(4.0,)]

    def test_view_in_xspec(self, db):
        from repro.metadata import generate_lower_xspec

        db.execute("CREATE VIEW v AS SELECT id, x FROM t")
        spec = generate_lower_xspec(db)
        vt = spec.table_by_logical("v")
        assert [c.name for c in vt.columns] == ["id", "x"]


class TestProjectionEdges:
    def test_duplicate_output_names_allowed(self, db):
        r = db.execute("SELECT id, id FROM t WHERE id = 1")
        assert r.rows == [(1, 1)]
        assert r.columns == ["id", "id"]

    def test_expression_output_gets_synthetic_name(self, db):
        r = db.execute("SELECT x * 2 FROM t WHERE id = 1")
        assert r.columns == ["col1"]

    def test_star_plus_expression(self, db):
        r = db.execute("SELECT *, id * 10 AS big FROM t WHERE id = 1")
        assert r.columns == ["id", "grp", "x", "s", "big"]
        assert r.rows[0][-1] == 10

    def test_order_by_expression(self, db):
        r = db.execute("SELECT id FROM t WHERE x IS NOT NULL ORDER BY -x")
        assert [row[0] for row in r.rows] == [5, 4, 2, 1]

    def test_order_by_two_keys(self, db):
        r = db.execute("SELECT grp, id FROM t ORDER BY grp DESC, id DESC")
        assert r.rows[0] == (None, 5)  # NULL first on DESC
        assert r.rows[1] == ("b", 4)

    def test_offset_beyond_end(self, db):
        assert db.execute("SELECT id FROM t LIMIT 5 OFFSET 99").rows == []

    def test_limit_zero(self, db):
        assert db.execute("SELECT id FROM t LIMIT 0").rows == []


class TestErrorPaths:
    def test_unknown_column_in_order_by(self, db):
        with pytest.raises(ColumnNotFoundError):
            db.execute("SELECT id FROM t ORDER BY nothere")

    def test_unknown_table_qualifier_in_star(self, db):
        with pytest.raises(ColumnNotFoundError):
            db.execute("SELECT z.* FROM t")

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(SQLTypeError):
            db.execute("SELECT id FROM t WHERE COUNT(*) > 1")

    def test_mixed_aggregate_and_bare_column(self, db):
        with pytest.raises(PlanningError):
            db.execute("SELECT id, COUNT(*) FROM t")

    def test_comparing_string_to_number_raises(self, db):
        with pytest.raises(SQLTypeError):
            db.execute("SELECT id FROM t WHERE s > 3")


class TestInsertSelectEdges:
    def test_insert_duplicate_key_fails_atomically_per_statement(self, db):
        from repro.common.errors import IntegrityError

        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t (id, grp) VALUES (100, 'z'), (100, 'z')")
        # the statement's rows land as one batch, so the first row did
        # not land before the duplicate-PK failure (as in sqlite3)
        assert db.execute("SELECT COUNT(*) FROM t WHERE id = 100").rows == [(0,)]

    def test_multi_column_pk(self, db):
        from repro.common.errors import IntegrityError

        db.execute("CREATE TABLE mc (a INT, b INT, PRIMARY KEY (a, b))")
        db.execute("INSERT INTO mc VALUES (1, 1), (1, 2)")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO mc VALUES (1, 1)")
