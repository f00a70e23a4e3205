"""Parse corpus: every pinned SQL text keeps its tree or its error.

``tests/data/parse_corpus.jsonl`` holds one ``[source, text, digest]``
line per text. The digest is of ``repr(parse_statement(text))``, or of
the error's class, message and position when the text does not parse,
so a change to the lexer or parser that moves one tree, one message or
one error position fails here. The sources are:

* ``entry``: every text the entry points parsed (the examples,
  ``repro.demo``, ``repro.tools.validate``, the four report CLIs,
  ``pytest benchmarks`` and the three perfbench ``--counts-only`` runs),
  captured once with a wrapper around ``parse_statement``;
* ``ddl``: the SQL src issues itself (the warehouse star schema and
  analysis views, the monitor's system tables, the sources' normalized
  schema, the four vendors' mart DDL over ``v_event_wide``, the marts'
  view reads and the sources' ETL extract queries); a test checks these
  lines against src, so a text changed there fails until the corpus is
  rebuilt, and another that each statement src runs prebuilt is the
  parse of its text;
* ``pool``: perfbench ``analysis_refresh``'s 2,000-query pool at seed 1;
* ``fragment``: seeded random texts that stress the lexer and the
  expression grammar (comments next to ``-``, chains of one operator,
  ``NOT NOT``, unterminated strings, keyword names), most of them errors.

Rewrite the digests after an intended change to trees or errors with
``PYTHONPATH=src python tests/test_parse_corpus.py``: it keeps the
``entry`` texts, rebuilds the other sources and prints how many lines
changed in each.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

from repro.sql.parser import parse_statement

CORPUS = Path(__file__).parent / "data" / "parse_corpus.jsonl"


def outcome(text: str) -> str:
    """``repr`` of the tree, or the error's class, message and position."""
    try:
        return repr(parse_statement(text))
    except Exception as exc:  # noqa: BLE001 - any error is pinned as it is
        return f"{type(exc).__name__}: {exc} @ {getattr(exc, 'position', None)}"


def digest(text: str) -> str:
    return hashlib.sha256(outcome(text).encode()).hexdigest()[:16]


def load() -> list[tuple[str, str, str]]:
    with CORPUS.open(encoding="utf-8") as f:
        return [tuple(json.loads(line)) for line in f]


def test_every_text_keeps_its_tree_or_error():
    entries = load()
    moved = [(source, text) for source, text, pinned in entries if digest(text) != pinned]
    assert not moved, f"{len(moved)} of {len(entries)} texts parse differently: {moved[:10]}"


def test_corpus_covers_each_source_and_both_outcomes():
    entries = load()
    sources = {source for source, _, _ in entries}
    assert sources == {"entry", "ddl", "pool", "fragment"}
    fragments = [text for source, text, _ in entries if source == "fragment"]
    errors = sum(outcome(text).startswith("SQLSyntaxError") for text in fragments)
    assert 0 < errors < len(fragments)
    assert len(fragments) >= 3000


def test_ddl_lines_are_the_ddl_held_in_src():
    pinned = [text for source, text, _ in load() if source == "ddl"]
    assert pinned == _ddl_texts()


def test_prebuilt_statements_are_the_parse_of_their_text():
    """What src runs for its own SQL is what its text parses to, so the
    stored text (a view's, the corpus') and the tree cannot drift."""
    for text, stmt in _system_statements():
        assert parse_statement(text) == stmt, text
        assert repr(parse_statement(text)) == repr(stmt), text


# Fragment generator --------------------------------------------------------

_ATOMS = (
    "a", "b", "c", "t.a", "t.*", "1", "0", "42", "2.5", ".5", "7.", "1e3", "1E-2",
    "'s'", "'it''s'", "''", "?", "NULL", "TRUE", "FALSE", '"q"', "`b`", "[c d]",
    "date", "key", "column", "index", "if", "rename", "f()", "COUNT(*)",
)
_BINARY = ("OR", "AND", "=", "<>", "!=", "<", "<=", ">", ">=", "+", "-", "||", "*", "/", "%")
_GAPS = (" ", " ", " ", "", "\n", "\t", " /* c */ ", "/**/", " --c\n", "--\n", " -- x\n")
_TAILS = (
    "", "", " FROM t", " FROM t WHERE a = 1", " --", " -- end", "--", "--c", " /* c */",
    "/*", " /* open", ";", " ;", " 1e+", " 2E-", " 'open", " 'it''s", ' "open', " `open",
    " [open", " -- c\n- 1", "--c\n-b", " - -", " ^", " AS x", " x", ") FROM t",
)
_PIECES = _ATOMS + _BINARY + (
    "SELECT", "FROM", "WHERE", "GROUP BY", "ORDER BY", "LIMIT", "HAVING", "NOT", "IS",
    "IN", "LIKE", "BETWEEN", "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "AS", "INT",
    "DOUBLE PRECISION", "VARCHAR(8)", "DISTINCT", "(", ")", ",", ".", ";", "--", "/*",
    "*/", "1e+", "'", '"', "`", "[", "#", "JOIN", "ON", "UNION", "ALL", "EXISTS",
)
_PREFIXES = ("SELECT ", "SELECT a FROM t WHERE ", "CREATE TABLE t (", "INSERT INTO t VALUES (", "")
_PINNED = (
    "SELECT a - - b", "SELECT a--b", "SELECT a- -b", "SELECT NOT NOT a", "SELECT a - b - c",
    "SELECT a || b || c", "SELECT a = b = c", "SELECT a * b / c % d",
    "SELECT a FROM t WHERE x NOT BETWEEN 1 AND 2 AND y", "SELECT 1e+", "SELECT 1e+ FROM t",
    "SELECT b --c", "SELECT b --c\n- 1", "SELECT b --", "SELECT b -", "SELECT b-", "--",
    "SELECT /* a */ b /* c */", "SELECT /* open", "SELECT 'open", 'SELECT "open',
    "SELECT `open", "SELECT [open", "", " ", "-- only a comment", "SELECT - - 1",
    "SELECT -+-1", "SELECT -(1)", "SELECT - 'a'", "SELECT NOT a = b AND c OR d",
)


def _expr(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return rng.choice(_ATOMS)
    sub = functools.partial(_expr, rng, depth - 1)
    gap = functools.partial(rng.choice, _GAPS)
    if roll < 0.35:
        return rng.choice(("NOT ", "NOT NOT ", "-", "- ", "--", "+", "-+")) + gap() + sub()
    if roll < 0.42:
        return "(" + sub() + ")"
    if roll < 0.48:
        neg = rng.choice(("", "NOT "))
        return f"{sub()} {neg}BETWEEN {sub()} AND {sub()}"
    if roll < 0.55:
        neg = rng.choice(("", "NOT "))
        return rng.choice((
            f"{sub()} {neg}IN ({sub()}, {sub()})", f"{sub()} IS {neg}NULL",
            f"{sub()} {neg}LIKE {sub()}", f"{sub()} {neg}IN (SELECT a FROM t)",
        ))
    if roll < 0.62:
        return rng.choice((
            f"CASE WHEN {sub()} THEN {sub()} ELSE {sub()} END", f"CAST({sub()} AS INT)",
            f"SUM(DISTINCT {sub()})", f"f({sub()}, {sub()})", f"EXISTS (SELECT {sub()})",
            f"(SELECT {sub()} FROM t)",
        ))
    return sub() + gap() + rng.choice(_BINARY) + gap() + sub()


def fragments(n: int = 4000, seed: int = 2005) -> list[str]:
    """``_PINNED``, then ``n`` seeded texts: half expressions, half token soup."""
    rng = random.Random(seed)
    texts = list(_PINNED)
    for i in range(n):
        if i % 2 == 0:
            texts.append("SELECT " + _expr(rng, rng.randint(1, 4)) + rng.choice(_TAILS))
        else:
            pieces = [rng.choice(_PIECES) for _ in range(rng.randint(1, 8))]
            body = "".join(p + rng.choice(_GAPS) for p in pieces)
            texts.append(rng.choice(_PREFIXES) + body + rng.choice(_TAILS))
    keywords = ("column", "date", "key", "index", "if", "rename")
    for name in keywords:
        texts += [f"CREATE TABLE t ({name} INT)", f"SELECT {name} FROM t",
                  f"SELECT a FROM t WHERE {name} = 1"]
    return list(dict.fromkeys(texts))


def _system_statements() -> list[tuple[str, object]]:
    """Each SQL text src issues itself, with the statement run for it: the
    warehouse star schema and views, the monitor's tables, the sources'
    normalized schema, the four vendors' mart DDL over ``v_event_wide``'s
    columns, the marts' view reads and the sources' ETL extract queries."""
    from repro.dialects import get_dialect
    from repro.engine.database import Database
    from repro.hep.schema import create_source_schema
    from repro.hep.workload import etl_jobs_for_source
    from repro.marts.materialize import _mart_ddl, _view_read
    from repro.net.network import Network
    from repro.net.simclock import SimClock
    from repro.obs.monitor import _ddl_statements as monitor_ddl
    from repro.warehouse.schema import (
        WAREHOUSE_VIEWS,
        create_warehouse_schema,
        create_warehouse_views,
    )
    from repro.warehouse.warehouse import Warehouse

    class Recorder:
        def __init__(self):
            self.runs: list[tuple[str, object]] = []

        def execute(self, sql: str):
            self.runs.append((sql, parse_statement(sql)))

        def execute_statement(self, stmt, params=(), sql_text=None):
            self.runs.append((sql_text, stmt))

    rec = Recorder()
    for nvar in (1, 3, 8):
        create_warehouse_schema(rec, nvar)
        create_warehouse_views(rec, nvar)
        create_warehouse_views(rec, nvar, wide_vars=2)
    rec.runs += monitor_ddl()
    create_source_schema(rec)
    wide = Warehouse(Network(), SimClock(), nvar=8).db.execute("SELECT * FROM v_event_wide")
    columns = tuple(zip(wide.columns, wide.types))
    for vendor in ("mysql", "mssql", "oracle", "sqlite"):
        rec.runs.append(_mart_ddl(get_dialect(vendor), "v_event_wide", columns))
    rec.runs += map(_view_read, WAREHOUSE_VIEWS)
    for job in etl_jobs_for_source(Database("source"), "source.host", 8):
        rec.runs.append((job.query, job.statement()))
    return list(dict(rec.runs).items())


def _ddl_texts() -> list[str]:
    return [text for text, _ in _system_statements()]


def _pool_texts() -> list[str]:
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import AnalysisRefresh

    return AnalysisRefresh(1).pool


def main() -> None:
    old = load() if CORPUS.exists() else []
    sources = {
        "entry": [text for source, text, _ in old if source == "entry"],
        "ddl": _ddl_texts(),
        "pool": _pool_texts(),
        "fragment": fragments(),
    }
    entries = [(source, text, digest(text)) for source, texts in sources.items() for text in texts]
    changed = set(entries) - set(old)
    CORPUS.parent.mkdir(exist_ok=True)
    with CORPUS.open("w", encoding="utf-8") as f:
        for entry in entries:
            f.write(json.dumps(entry) + "\n")
    print(f"{len(entries)} texts, {len(changed)} lines new or changed")
    for source in sources:
        print(f"  {source}: {sum(entry[0] == source for entry in changed)}")


if __name__ == "__main__":
    main()
