"""Tests for non-correlated subqueries (scalar, IN, EXISTS)."""

import pytest

from repro.common import PlanningError, SQLTypeError
from repro.engine import Database
from repro.sql import ast, parse_expression, parse_statement


@pytest.fixture
def db():
    d = Database("sq", "generic")
    d.execute("CREATE TABLE emp (id INT PRIMARY KEY, dept VARCHAR(8), salary DOUBLE)")
    d.execute(
        "INSERT INTO emp VALUES (1,'hr',100),(2,'it',200),(3,'it',150),(4,'fin',300)"
    )
    d.execute("CREATE TABLE closed (dept VARCHAR(8))")
    d.execute("INSERT INTO closed VALUES ('fin')")
    return d


class TestParsing:
    def test_in_subquery_parses(self):
        expr = parse_expression("x IN (SELECT y FROM t)")
        assert isinstance(expr, ast.InSubquery)

    def test_not_in_subquery(self):
        assert parse_expression("x NOT IN (SELECT y FROM t)").negated

    def test_scalar_subquery_parses(self):
        expr = parse_expression("(SELECT MAX(y) FROM t)")
        assert isinstance(expr, ast.ScalarSubquery)

    def test_exists_parses(self):
        expr = parse_expression("EXISTS (SELECT 1 FROM t)")
        assert isinstance(expr, ast.Exists)

    def test_unparse_round_trip(self):
        for text in (
            "SELECT a FROM t WHERE (x IN (SELECT y FROM u))",
            "SELECT a FROM t WHERE (salary > (SELECT AVG(salary) FROM t))",
        ):
            stmt = parse_statement(text)
            assert parse_statement(stmt.unparse()).unparse() == stmt.unparse()

    def test_contains_subquery_helper(self):
        expr = parse_expression("a + 1 > (SELECT MAX(y) FROM t)")
        assert ast.contains_subquery(expr)
        assert not ast.contains_subquery(parse_expression("a + 1"))


class TestExecution:
    def test_in_subquery(self, db):
        r = db.execute(
            "SELECT id FROM emp WHERE dept IN (SELECT dept FROM closed)"
        )
        assert r.rows == [(4,)]

    def test_not_in_subquery(self, db):
        r = db.execute(
            "SELECT id FROM emp WHERE dept NOT IN (SELECT dept FROM closed) "
            "ORDER BY id"
        )
        assert r.rows == [(1,), (2,), (3,)]

    def test_in_subquery_with_null_member(self, db):
        db.execute("INSERT INTO closed VALUES (NULL)")
        # dept 'hr' is not in {fin, NULL}: UNKNOWN -> filtered
        r = db.execute("SELECT id FROM emp WHERE dept IN (SELECT dept FROM closed)")
        assert r.rows == [(4,)]
        # NOT IN over a set with NULL is never TRUE
        r2 = db.execute(
            "SELECT id FROM emp WHERE dept NOT IN (SELECT dept FROM closed)"
        )
        assert r2.rows == []

    def test_scalar_subquery_in_where(self, db):
        r = db.execute(
            "SELECT id FROM emp WHERE salary > (SELECT AVG(salary) FROM emp) "
            "ORDER BY id"
        )
        assert r.rows == [(2,), (4,)]

    def test_scalar_subquery_in_projection(self, db):
        r = db.execute("SELECT id, salary - (SELECT MIN(salary) FROM emp) FROM emp "
                       "WHERE id = 4")
        assert r.rows == [(4, 200.0)]

    def test_scalar_subquery_empty_is_null(self, db):
        r = db.execute(
            "SELECT (SELECT salary FROM emp WHERE id = 99)"
        )
        assert r.rows == [(None,)]

    def test_scalar_subquery_multirow_raises(self, db):
        with pytest.raises(SQLTypeError):
            db.execute("SELECT (SELECT salary FROM emp)")

    def test_scalar_subquery_multicolumn_raises(self, db):
        with pytest.raises(SQLTypeError):
            db.execute("SELECT id FROM emp WHERE salary > (SELECT id, salary FROM emp)")

    def test_exists(self, db):
        r = db.execute(
            "SELECT COUNT(*) FROM emp WHERE EXISTS (SELECT 1 FROM closed)"
        )
        assert r.rows == [(4,)]

    def test_not_exists(self, db):
        db.catalog.get_table("closed").replace_rows([])
        r = db.execute(
            "SELECT COUNT(*) FROM emp WHERE NOT EXISTS (SELECT 1 FROM closed)"
        )
        assert r.rows == [(4,)]

    def test_nested_subqueries(self, db):
        r = db.execute(
            "SELECT id FROM emp WHERE salary = "
            "(SELECT MAX(salary) FROM emp WHERE dept IN (SELECT dept FROM closed))"
        )
        assert r.rows == [(4,)]

    def test_subquery_examined_rows_counted(self, db):
        r = db.execute("SELECT id FROM emp WHERE salary > (SELECT AVG(salary) FROM emp)")
        assert r.stats.rows_examined >= 8  # outer scan + inner scan


class TestFederationRejection:
    def test_decompose_rejects_subqueries(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        from repro.sql import parse_select
        from repro.unity import decompose

        with pytest.raises(PlanningError):
            decompose(
                parse_select(
                    "SELECT event_id FROM events WHERE run_id IN "
                    "(SELECT run_id FROM runs)"
                ),
                dictionary,
            )
