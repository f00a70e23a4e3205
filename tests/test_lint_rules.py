"""Unit tests for the static analyzer: one positive + one negative per code."""

import pytest

from repro.common import SQLTypeError
from repro.engine import Database
from repro.lint import (
    RULES,
    CatalogSchema,
    DictionarySchema,
    Diagnostic,
    LintConfig,
    Severity,
    Span,
    lint_sql,
)


def make_db() -> Database:
    db = Database("lintdb", "generic")
    db.execute(
        "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(8), c DOUBLE, f BOOLEAN)"
    )
    db.execute("CREATE TABLE u (a INT PRIMARY KEY, d DOUBLE)")
    db.execute("INSERT INTO t VALUES (1, 'x', 2.5, TRUE)")
    db.execute("INSERT INTO u VALUES (1, 9.5)")
    return db


@pytest.fixture
def schema():
    return CatalogSchema(make_db())


def codes(sql, schema, config=None):
    return lint_sql(sql, schema, config).codes()


class TestSeverityAndDiagnostic:
    def test_from_name(self):
        assert Severity.from_name("error") is Severity.ERROR
        assert Severity.from_name(" Warning ") is Severity.WARNING
        with pytest.raises(ValueError):
            Severity.from_name("fatal")

    def test_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO

    def test_str_and_dict(self):
        d = Diagnostic("RPR102", Severity.ERROR, "unknown column 'zz'",
                       Span("zz", 7, 9))
        assert str(d) == "RPR102 error: unknown column 'zz' ['zz' at offset 7]"
        wire = d.as_dict()
        assert wire["code"] == "RPR102"
        assert wire["severity"] == "error"
        assert wire["span"] == {"fragment": "zz", "start": 7, "end": 9}

    def test_report_properties(self, schema):
        report = lint_sql("SELECT zz FROM t WHERE 1", schema)
        assert not report.ok
        assert len(report.errors) == 1
        assert len(report.warnings) == 1
        assert len(report) == 2
        assert all(isinstance(line, str) for line in report.format_lines())


class TestLintConfig:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            LintConfig(disabled={"RPR999"})
        with pytest.raises(ValueError):
            LintConfig(severities={"NOPE": Severity.ERROR})

    def test_disable(self, schema):
        config = LintConfig(disabled={"RPR102"})
        assert codes("SELECT zz FROM t", schema, config) == set()

    def test_severity_override(self, schema):
        config = LintConfig(severities={"RPR202": Severity.ERROR})
        report = lint_sql("SELECT a FROM t WHERE 1", schema, config)
        assert report.codes() == {"RPR202"}
        assert not report.ok  # promoted to error

    def test_every_code_documented(self):
        for code, rule in RULES.items():
            assert code == rule.code
            assert rule.description
            assert rule.slug


class TestWriteStatementsAndSelectText:
    """INSERT and SELECT text through ``lint_sql``, pinned
    against ``t (a INT PRIMARY KEY, b DOUBLE)``."""

    @pytest.fixture
    def provider(self):
        db = Database("writes", "generic")
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b DOUBLE)")
        return CatalogSchema(db)

    @pytest.mark.parametrize(
        "sql, code, severity, message",
        [
            ("INSERT INTO t VALUES (1)", "RPR201", Severity.ERROR,
             "INSERT row has 1 values for 2 column(s)"),
            ("INSERT INTO t (a, c) VALUES (1, 2)", "RPR102", Severity.ERROR,
             "table 't' has no column 'c'"),
            ("INSERT INTO u VALUES (1)", "RPR101", Severity.ERROR,
             "unknown table 'u'"),
        ],
    )
    def test_write_statement(self, provider, sql, code, severity, message):
        report = lint_sql(sql, provider)
        assert [(d.code, d.severity, d.message) for d in report.diagnostics] == [
            (code, severity, message)
        ]

    def test_select_text_with_a_syntax_error(self, provider):
        report = lint_sql("SELECT FROM WHERE", provider)
        assert report.codes() == {"RPR001"}
        assert not report.ok


class TestEngineRules:
    def test_rpr001_syntax(self, schema):
        report = lint_sql("SELECT FROM WHERE", schema)
        assert report.codes() == {"RPR001"}
        assert not report.ok

    def test_rpr101_unknown_table(self, schema):
        assert codes("SELECT a FROM missing", schema) == {"RPR101"}
        assert codes("SELECT a FROM t", schema) == set()

    def test_rpr102_unknown_column(self, schema):
        assert codes("SELECT zz FROM t", schema) == {"RPR102"}
        assert codes("SELECT t.zz FROM t", schema) == {"RPR102"}
        assert codes("SELECT t.a FROM t", schema) == set()

    def test_rpr102_suppressed_by_unknown_table(self, schema):
        # RPR101 is canonical; don't cascade column errors off a bad table.
        assert codes("SELECT zz FROM missing", schema) == {"RPR101"}

    def test_rpr103_ambiguous(self, schema):
        sql = "SELECT a FROM t JOIN u ON t.a = u.a"
        assert codes(sql, schema) == {"RPR103"}
        assert codes("SELECT t.a FROM t JOIN u ON t.a = u.a", schema) == set()

    def test_rpr104_unknown_function(self, schema):
        assert codes("SELECT NOSUCH(a) FROM t", schema) == {"RPR104"}
        assert codes("SELECT ABS(a) FROM t", schema) == set()

    def test_rpr105_arity(self, schema):
        report = lint_sql("SELECT LENGTH(b, b) FROM t", schema)
        assert "RPR105" in report.codes()
        assert codes("SELECT LENGTH(b) FROM t", schema) == set()

    def test_rpr106_duplicate_binding(self, schema):
        report = lint_sql("SELECT t.a FROM t, t", schema)
        assert "RPR106" in report.codes()
        # engine tolerates it (last table wins), so only a warning here
        assert all(d.severity == Severity.WARNING for d in report
                   if d.code == "RPR106")
        assert codes("SELECT x.a FROM t x, t y", schema) == set()

    def test_rpr201_arith_mismatch(self, schema):
        assert codes("SELECT a + b FROM t", schema) == {"RPR201"}
        assert codes("SELECT a + c FROM t", schema) == set()

    def test_rpr201_comparison_mismatch(self, schema):
        assert codes("SELECT a FROM t WHERE a > 'x'", schema) == {"RPR201"}
        assert codes("SELECT a FROM t WHERE b > 'x'", schema) == set()

    def test_rpr201_concat_is_fine(self, schema):
        # || stringifies both sides at runtime, like the engine
        assert codes("SELECT a || b FROM t", schema) == set()

    def test_rpr202_non_boolean_where(self, schema):
        report = lint_sql("SELECT a FROM t WHERE 1", schema)
        assert report.codes() == {"RPR202"}
        assert report.ok  # warning only: the engine tolerates truthiness
        assert codes("SELECT a FROM t WHERE a > 0", schema) == set()

    def test_rpr301_bare_column_with_aggregate(self, schema):
        assert codes("SELECT a, COUNT(*) FROM t", schema) == {"RPR301"}
        assert codes("SELECT a, COUNT(*) FROM t GROUP BY a", schema) == set()

    def test_rpr301_aggregate_in_where(self, schema):
        assert codes("SELECT a FROM t WHERE SUM(a) > 1", schema) == {"RPR301"}
        assert codes("SELECT a FROM t GROUP BY a HAVING SUM(c) > 1",
                     schema) == set()

    def test_rpr301_nested_aggregate(self, schema):
        assert codes("SELECT SUM(COUNT(*)) FROM t", schema) == {"RPR301"}

    def test_rpr201_numeric_aggregate_over_text(self, schema):
        assert codes("SELECT SUM(b) FROM t", schema) == {"RPR201"}
        assert codes("SELECT MIN(b) FROM t", schema) == set()

    def test_subqueries_analyzed_recursively(self, schema):
        assert codes("SELECT a FROM t WHERE a IN (SELECT zz FROM u)",
                     schema) == {"RPR102"}
        assert codes("SELECT a FROM t WHERE a IN (SELECT a FROM u)",
                     schema) == set()


class TestFederatedRules:
    @pytest.fixture
    def fed_schema(self, two_db_federation):
        _, dictionary, *_ = two_db_federation
        return DictionarySchema(dictionary)

    def test_context(self, fed_schema):
        assert fed_schema.context == "federated"

    def test_rpr302_subquery(self, fed_schema):
        sql = "SELECT energy FROM events WHERE run_id IN (SELECT run_id FROM runs)"
        assert codes(sql, fed_schema) == {"RPR302"}

    def test_rpr401_vendor_incompat(self, fed_schema):
        # runs lives on mssql, whose simulated dialect lacks TRIM
        sql = (
            "SELECT e.energy FROM events e INNER JOIN runs r "
            "ON e.run_id = r.run_id WHERE TRIM(r.detector) = 'cms'"
        )
        report = lint_sql(sql, fed_schema)
        assert "RPR401" in report.codes()
        ok_sql = (
            "SELECT e.energy FROM events e INNER JOIN runs r "
            "ON e.run_id = r.run_id WHERE UPPER(r.detector) = 'CMS'"
        )
        assert "RPR401" not in lint_sql(ok_sql, fed_schema).codes()

    def test_rpr501_whole_table_ship(self, fed_schema):
        sql = (
            "SELECT e.energy FROM events e INNER JOIN runs r "
            "ON e.run_id = r.run_id"
        )
        report = lint_sql(sql, fed_schema)
        assert "RPR501" in report.codes()
        assert report.ok  # warnings don't fail pre-flight

    def test_rpr106_escalates_federated(self, fed_schema):
        report = lint_sql("SELECT events.energy FROM events, events", fed_schema)
        assert "RPR106" in report.codes()
        assert not report.ok  # duplicate bindings break decomposition

    def test_clean_federated_join(self, fed_schema):
        sql = (
            "SELECT e.energy FROM events e INNER JOIN runs r "
            "ON e.run_id = r.run_id WHERE r.good = 1 AND e.energy > 2"
        )
        assert lint_sql(sql, fed_schema).errors == []


class TestExecutorTypecheck:
    def test_mixed_arith_raises_on_empty_table(self):
        db = Database("e", "generic")
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(4))")
        # previously returned an empty result silently; now a typed error
        with pytest.raises(SQLTypeError):
            db.execute("SELECT a + b FROM t")

    def test_mixed_comparison_raises_on_empty_table(self):
        db = Database("e", "generic")
        db.execute("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(4))")
        with pytest.raises(SQLTypeError):
            db.execute("SELECT a FROM t WHERE a > 'x'")

    def test_valid_queries_still_run(self):
        db = make_db()
        assert db.execute("SELECT a + c FROM t").rows == [(3.5,)]
        assert db.execute("SELECT a || b FROM t").rows == [("1x",)]
