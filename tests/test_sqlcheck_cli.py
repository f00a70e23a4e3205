"""Tests for the ``python -m repro.tools.sqlcheck`` CLI entry point."""

import pytest

from repro.common import SQLType
from repro.lint import XSpecSchema, lint_sql
from repro.metadata import LowerXSpec
from repro.metadata.xspec import XSpecColumn, XSpecTable
from repro.tools.sqlcheck import main, split_statements


def _col(name, sql_type, **kw):
    return XSpecColumn(
        name=name.upper(), logical_name=name,
        vendor_type=str(sql_type), logical_type=sql_type, **kw,
    )


@pytest.fixture
def xspec_file(tmp_path):
    spec = LowerXSpec(
        database_name="mart1",
        vendor="sqlite",
        tables=(
            XSpecTable(
                name="EVENTS", logical_name="events",
                columns=(
                    _col("run", SQLType.integer()),
                    _col("edep", SQLType.double()),
                    _col("tag", SQLType.varchar(16)),
                ),
                row_count=100,
            ),
        ),
    )
    path = tmp_path / "mart1.xspec.xml"
    path.write_text(spec.to_xml(), encoding="utf-8")
    return str(path)


class TestSplitStatements:
    """Each statement comes with its first line and starts at its first
    token; the split is on the lexer's ``;`` tokens."""

    def test_basic(self):
        assert split_statements("SELECT 1; SELECT 2") == [(1, "SELECT 1"), (1, "SELECT 2")]

    def test_semicolon_inside_string(self):
        assert split_statements("SELECT 'a;b' FROM t") == [(1, "SELECT 'a;b' FROM t")]

    def test_escaped_quote(self):
        assert split_statements("SELECT 'it''s;ok' FROM t; SELECT 1") == [
            (1, "SELECT 'it''s;ok' FROM t"),
            (1, "SELECT 1"),
        ]

    def test_trailing_and_empty(self):
        assert split_statements(" ;; SELECT 1 ; ") == [(1, "SELECT 1")]

    def test_apostrophe_in_line_comment(self):
        assert split_statements("-- don't\nSELECT 1; SELECT 2") == [
            (2, "SELECT 1"), (2, "SELECT 2"),
        ]

    def test_semicolon_inside_quoted_identifier(self):
        assert split_statements('SELECT "a;b" FROM t') == [(1, 'SELECT "a;b" FROM t')]

    def test_apostrophe_and_semicolon_in_block_comment(self):
        assert split_statements("SELECT 1 /* it's; */; SELECT 2") == [
            (1, "SELECT 1 /* it's; */"), (1, "SELECT 2"),
        ]

    def test_leading_comments_and_lines(self):
        text = "-- first\n\nSELECT 1\nFROM t;\n/* two\nlines */ SELECT 2;\n-- tail"
        assert split_statements(text) == [(3, "SELECT 1\nFROM t"), (6, "SELECT 2")]

    def test_text_that_does_not_lex_is_one_statement(self):
        # the unterminated string swallows the rest, as the lexer reads it
        assert split_statements("SELECT 1;\nSELECT 'x; SELECT 2") == [
            (1, "SELECT 1"), (2, "SELECT 'x; SELECT 2"),
        ]
        assert split_statements("SELECT 1; -- c\n #; SELECT 2") == [
            (1, "SELECT 1"), (2, "#; SELECT 2"),
        ]


class TestExitCodes:
    def test_clean_query_exits_zero(self, xspec_file, capsys):
        code = main(["--xspec", xspec_file, "--sql",
                     "SELECT run, SUM(edep) FROM events GROUP BY run"])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_unknown_column_exits_one(self, xspec_file, capsys):
        code = main(["--xspec", xspec_file, "--sql",
                     "SELECT no_col FROM events"])
        assert code == 1
        assert "RPR102" in capsys.readouterr().out

    def test_union_is_one_syntax_error_exits_one(self, xspec_file, capsys):
        # dataaccess.query refuses a UNION at parse, so the gate does too
        code = main(["--xspec", xspec_file, "--sql",
                     "SELECT run FROM events UNION SELECT run FROM events"])
        assert code == 1
        out = capsys.readouterr().out
        assert out.count("RPR001 error: unexpected trailing input 'UNION'") == 1
        assert "1 error(s)" in out

    def test_vendor_incompatible_function_exits_one(self, xspec_file, capsys):
        # the simulated sqlite dialect has no SQRT
        code = main(["--xspec", xspec_file, "--sql",
                     "SELECT SQRT(edep) FROM events"])
        assert code == 1
        assert "RPR401" in capsys.readouterr().out

    def test_warnings_alone_exit_zero(self, xspec_file, capsys):
        code = main(["--xspec", xspec_file, "--sql",
                     "SELECT edep FROM events WHERE 1"])
        assert code == 0
        assert "RPR202" in capsys.readouterr().out

    def test_sql_file_operand(self, xspec_file, tmp_path, capsys):
        sql_path = tmp_path / "queries.sql"
        sql_path.write_text(
            "SELECT run FROM events;\nSELECT bogus FROM events;\n",
            encoding="utf-8",
        )
        code = main(["--xspec", xspec_file, str(sql_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "queries.sql" in out and "RPR102" in out

    def test_findings_name_the_first_line_and_count_from_the_first_token(
        self, xspec_file, tmp_path, capsys
    ):
        sql_path = tmp_path / "queries.sql"
        sql_path.write_text(
            "-- the run's events; one query per line\n"
            "SELECT run FROM events;\n\n"
            "-- a bad column\nSELECT bogus FROM events;\n"
            "SELECT 'x FROM events;\n",
            encoding="utf-8",
        )
        assert main(["--xspec", xspec_file, str(sql_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"{sql_path}:5: RPR102 error: unknown column 'bogus' ['bogus' at offset 7]",
            f"{sql_path}:6: RPR001 error: unterminated string literal "
            "(at position 7: ...\"SELECT 'x FROM events;\"...)",
            "checked 3 statement(s): 2 error(s), 0 warning(s)",
        ]

    def test_missing_xspec_file_exits_two(self, tmp_path, capsys):
        code = main(["--xspec", str(tmp_path / "nope.xml"), "--sql", "SELECT 1"])
        assert code == 2


class TestFlags:
    def test_disable(self, xspec_file):
        assert main(["--xspec", xspec_file, "--disable", "RPR401",
                     "--sql", "SELECT SQRT(edep) FROM events"]) == 0

    def test_severity_promotion(self, xspec_file):
        assert main(["--xspec", xspec_file, "--severity", "RPR202=error",
                     "--sql", "SELECT edep FROM events WHERE 1"]) == 1

    def test_severity_demotion(self, xspec_file):
        assert main(["--xspec", xspec_file, "--severity", "RPR401=warning",
                     "--sql", "SELECT SQRT(edep) FROM events"]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR001", "RPR101", "RPR201", "RPR501"):
            assert code in out

    def test_no_xspec_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["--sql", "SELECT 1"])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def sample_schema():
    """A mysql events mart and an mssql runs mart, as two XSpecs."""
    mysql_spec = LowerXSpec(
        database_name="mart1",
        vendor="mysql",
        tables=(
            XSpecTable(
                name="EVENTS", logical_name="events",
                columns=(
                    _col("run", SQLType.integer(), primary_key=True),
                    _col("edep", SQLType.double()),
                    _col("tag", SQLType.varchar(32)),
                ),
                row_count=50000,
            ),
        ),
    )
    mssql_spec = LowerXSpec(
        database_name="mart2",
        vendor="mssql",
        tables=(
            XSpecTable(
                name="RUNS", logical_name="runs",
                columns=(
                    _col("run", SQLType.integer(), primary_key=True),
                    _col("detector", SQLType.varchar(16)),
                ),
                row_count=400,
            ),
        ),
    )
    return XSpecSchema(mysql_spec, mssql_spec)


#: one diagnostic per major code family, plus clean queries
SAMPLE_CASES = [
    ("SELECT edep FROM events WHERE run > 5", set()),
    ("SELECT edep FROM evnts", {"RPR101"}),
    ("SELECT edap FROM events", {"RPR102"}),
    ("SELECT edep + tag FROM events", {"RPR201"}),
    ("SELECT edep FROM events WHERE tag", {"RPR202"}),
    (
        "SELECT edep FROM events WHERE run IN (SELECT run FROM runs)",
        {"RPR302"},
    ),
    # TRIM ships to the mssql mart (single-binding conjunct pushdown).
    (
        "SELECT e.edep FROM events e INNER JOIN runs r ON e.run = r.run "
        "WHERE TRIM(r.detector) = 'ECAL'",
        {"RPR401", "RPR501"},
    ),
    ("SELECT SUM(edep) FROM events GROUP BY tag", set()),
]


@pytest.mark.parametrize("sql, expected", SAMPLE_CASES)
def test_sample_spec_case(sample_schema, sql, expected):
    assert lint_sql(sql, sample_schema).codes() == expected
