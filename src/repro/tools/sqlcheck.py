"""Static SQL checker CLI: ``python -m repro.tools.sqlcheck``.

Lints queries (inline strings or ``.sql`` files, ``;``-separated)
against one or more XSpec documents and exits non-zero when any
ERROR-severity diagnostic is found — suitable as a CI gate for the
query sets an analysis site maintains::

    python -m repro.tools.sqlcheck --xspec warehouse.xspec.xml queries.sql
    python -m repro.tools.sqlcheck --xspec a.xml --xspec b.xml \\
        --sql "SELECT run, SUM(edep) FROM events GROUP BY run"

``--disable CODE`` switches a rule off and ``--severity CODE=LEVEL``
re-grades one (e.g. ``--severity RPR501=error`` to fail the build on
whole-table shipping).

Each finding prints as ``FILE:LINE: CODE severity: message``, where LINE
is the statement's first line (``<sql>`` for ``--sql`` text) and an
offset counts from the statement's first token.
"""

from __future__ import annotations

import argparse
import sys

from repro.common.errors import ReproError, SQLSyntaxError
from repro.lint import (
    RULES,
    LintConfig,
    Severity,
    XSpecSchema,
    lint_sql,
)
from repro.metadata.xspec import LowerXSpec
from repro.sql.lexer import TokenType, tokenize


def split_statements(text: str) -> list[tuple[int, str]]:
    """``(first line, statement)`` for each ``;``-separated statement.

    The split is on the lexer's ``;`` tokens, so quotes and comments
    follow the parser's rules, and a statement starts at its first
    token (offsets in a finding count from there). From the statement
    where the text stops lexing, the rest is one statement, so lint
    reports its syntax error.
    """
    try:
        tokens, lexed = tokenize(text), len(text)
    except SQLSyntaxError as exc:
        tokens, lexed = tokenize(text[: exc.position]), exc.position
    spans: list[tuple[int, int]] = []
    start = None
    for token in tokens[:-1]:  # the last is EOF
        if token.matches(TokenType.PUNCT, ";"):
            if start is not None:
                spans.append((start, token.position))
            start = None
        elif start is None:
            start = token.position
    if start is None and lexed < len(text):
        start = lexed
    if start is not None:
        spans.append((start, len(text)))
    return [(text.count("\n", 0, a) + 1, text[a:b].rstrip()) for a, b in spans]


def _build_config(args) -> LintConfig:
    severities: dict[str, Severity] = {}
    for spec in args.severity or []:
        if "=" not in spec:
            raise ValueError(f"--severity expects CODE=LEVEL, got {spec!r}")
        code, _eq, level = spec.partition("=")
        severities[code.strip().upper()] = Severity.from_name(level)
    return LintConfig(
        disabled={c.strip().upper() for c in (args.disable or [])},
        severities=severities,
    )


def _gather_sql(args) -> list[tuple[str, str]]:
    """(``origin:line``, statement) pairs from --sql options and file
    operands; the line is the statement's first."""
    work: list[tuple[str, str]] = []
    for text in args.sql or []:
        for line, statement in split_statements(text):
            work.append((f"<sql>:{line}", statement))
    for path in args.files:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        for line, statement in split_statements(text):
            work.append((f"{path}:{line}", statement))
    return work


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.sqlcheck",
        description="statically check SQL against XSpec metadata",
    )
    parser.add_argument(
        "--xspec", action="append", metavar="FILE",
        help="XSpec XML document (repeatable; one per database)",
    )
    parser.add_argument(
        "--sql", action="append", metavar="TEXT",
        help="inline SQL to check (repeatable; ';'-separated)",
    )
    parser.add_argument(
        "files", nargs="*", metavar="FILE.sql",
        help="SQL files to check ('-' reads stdin)",
    )
    parser.add_argument(
        "--disable", action="append", metavar="CODE",
        help="disable a rule (repeatable), e.g. --disable RPR501",
    )
    parser.add_argument(
        "--severity", action="append", metavar="CODE=LEVEL",
        help="override a rule's severity, e.g. --severity RPR202=error",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES.values():
            print(
                f"{rule.code}  {rule.severity.label:7}  "
                f"{rule.slug:20} {rule.description}"
            )
        return 0
    try:
        config = _build_config(args)
    except ValueError as exc:
        parser.error(str(exc))

    if not args.xspec:
        parser.error("at least one --xspec FILE is required")
    specs = []
    for path in args.xspec:
        try:
            with open(path, encoding="utf-8") as handle:
                specs.append(LowerXSpec.from_xml(handle.read()))
        except (OSError, ReproError) as exc:
            print(f"error: cannot load XSpec {path!r}: {exc}", file=sys.stderr)
            return 2
    schema = XSpecSchema(*specs)

    work = _gather_sql(args)
    if not work:
        parser.error("nothing to check: pass --sql TEXT or FILE.sql operands")

    errors = warnings = 0
    for origin, statement in work:
        report = lint_sql(statement, schema, config)
        errors += len(report.errors)
        warnings += len(report.warnings)
        for line in report.format_lines():
            print(f"{origin}: {line}")
    print(
        f"checked {len(work)} statement(s): "
        f"{errors} error(s), {warnings} warning(s)"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
