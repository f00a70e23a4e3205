"""The SQL the system issues itself is parsed once per process.

The warehouse and source DDL, the marts' vendor DDL and view reads, and
an ETL job's extract query are built as trees once and run with
``Database.execute_statement``; every warehouse and mart shares those
trees, which is safe only while every AST node is immutable.
"""

from __future__ import annotations

import dataclasses
import typing

import pytest

from repro.common.rng import DeterministicRNG
from repro.engine.database import Database
from repro.hep.ntuple import generate_ntuple
from repro.hep.schema import create_source_schema, populate_source
from repro.hep.workload import etl_jobs_for_source
from repro.marts.materialize import MartSet
from repro.net.network import Network
from repro.net.simclock import SimClock
from repro.sql import ast, parser
from repro.warehouse import etl
from repro.warehouse.etl import ETLJob, ETLPipeline, extract
from repro.warehouse.warehouse import Warehouse

NVAR = 8
SOURCE_HOST = "tier1.example.org"
VENDORS = ("mysql", "mssql", "oracle", "sqlite")


def _etl_pass(job: ETLJob):
    """Source → fresh warehouse → four fresh marts, on a fresh clock; the
    mart rows and each report's figures."""
    network = Network()
    network.add_host(SOURCE_HOST, 1)
    warehouse = Warehouse(network, SimClock(), nvar=NVAR)
    reports = [warehouse.load(job)]
    marts = MartSet(warehouse)
    for i, vendor in enumerate(VENDORS):
        marts.add_mart(Database(f"mart_{vendor}", vendor), f"mart{i}.example.org")
    reports += marts.replicate(["v_event_wide"])
    rows = {db.name: db.catalog.get_table("v_event_wide").rows for db, _ in marts.marts}
    figures = [
        (r.job_table, r.rows, r.staged_bytes, r.extraction_ms, r.loading_ms) for r in reports
    ]
    return rows, figures


def test_a_second_etl_pass_parses_nothing(monkeypatch):
    source = Database("tier1_source", "oracle")
    create_source_schema(source)
    rng = DeterministicRNG("system-sql", 1)
    populate_source(source, rng, {1: generate_ntuple(rng.fork("nt"), 40, NVAR)})
    job = etl_jobs_for_source(source, SOURCE_HOST, NVAR)[0]
    first_rows, first_figures = _etl_pass(job)

    parsed = _count_statement_parses(monkeypatch)
    second_rows, second_figures = _etl_pass(job)
    assert parsed == []
    assert second_rows == first_rows
    assert second_figures == first_figures  # sim ms with ==
    assert all(rows for rows in second_rows.values())
    # the counter sees a parse that does happen: client SQL still parses
    source.execute("SELECT COUNT(*) FROM runs")
    assert parsed == ["SELECT COUNT(*) FROM runs"]


def test_a_jobs_parse_follows_its_query():
    source = Database("s")
    source.execute("CREATE TABLE runs (run_id INTEGER, detector VARCHAR(8))")
    source.execute("INSERT INTO runs VALUES (1, 'ECAL')")
    job = ETLJob(source=source, source_host="h", query="SELECT run_id FROM runs",
                 target_table="t")
    assert job.statement() is job.statement()
    job.query = "SELECT detector FROM runs"
    assert job.statement() == parser.parse_select("SELECT detector FROM runs")
    assert extract(job).rows == [("ECAL",)]


def _count_statement_parses(monkeypatch) -> list[str]:
    """The text of every statement parsed from now on."""
    parsed: list[str] = []
    parse = parser._Parser.parse_statement

    def counting(self):
        parsed.append(self.sql)
        return parse(self)

    monkeypatch.setattr(parser._Parser, "parse_statement", counting)
    return parsed


def test_a_second_incremental_pass_parses_nothing(monkeypatch):
    """The delta query is built from the job's parse, and extract runs
    that tree rather than parsing the delta's text."""
    source = Database("tier1_source", "oracle")
    create_source_schema(source)
    rng = DeterministicRNG("system-sql-incremental", 1)
    populate_source(source, rng, {1: generate_ntuple(rng.fork("nt1"), 20, NVAR)})
    network = Network()
    network.add_host(SOURCE_HOST, 1)
    warehouse = Warehouse(network, SimClock(), nvar=NVAR)
    job = etl_jobs_for_source(source, SOURCE_HOST, NVAR)[0]
    assert warehouse.pipeline.run_incremental(job, "e.event_id").rows == 20
    populate_source(
        source, rng, {2: generate_ntuple(rng.fork("nt2"), 15, NVAR)}, first_event_id=100
    )
    parsed = _count_statement_parses(monkeypatch)
    assert warehouse.pipeline.run_incremental(job, "e.event_id").rows == 15
    assert warehouse.pipeline.run_incremental(job, "e.event_id").rows == 0
    assert parsed == []


@pytest.mark.parametrize("watermark, last", [
    ("r.run_id", 7), ("r.run_id", -3), ("r.energy", 2.5), ("r.energy", -0.125),
    ("r.energy", 1e-07), ("r.tag", "it's"),
])
def test_a_delta_query_reparses_to_the_tree_extract_runs(monkeypatch, watermark, last):
    source = Database("s")
    source.execute("CREATE TABLE runs (run_id INTEGER, energy DOUBLE, tag VARCHAR(8))")
    source.execute("INSERT INTO runs VALUES (9, 3.5, 'zz'), (-5, -1.0, 'a')")
    target = Database("w")
    target.execute("CREATE TABLE runs (run_id INTEGER, energy DOUBLE, tag VARCHAR(8))")
    network = Network()
    for host in ("src", "wh"):
        network.add_host(host, 1)
    pipeline = ETLPipeline(network, SimClock(), target, "wh")
    job = ETLJob(source=source, source_host="src", target_table="runs",
                 query="SELECT r.run_id, r.energy, r.tag FROM runs r WHERE r.run_id <> 0")
    pipeline.watermarks["runs"] = last
    deltas = []

    def capturing(delta_job):
        deltas.append(delta_job)
        return extract(delta_job)

    monkeypatch.setattr(etl, "extract", capturing)
    pipeline.run_incremental(job, watermark)
    (delta,) = deltas
    text, tree = delta.parsed
    assert text == delta.query
    assert parser.parse_select(text) == tree
    assert extract(delta).rows == source.execute(text).rows


def _mutable(hint) -> bool:
    origin = typing.get_origin(hint) or hint
    return origin in (list, dict, set) or any(map(_mutable, typing.get_args(hint)))


def test_every_ast_node_is_frozen_with_no_mutable_field():
    nodes = [
        obj for obj in vars(ast).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == ast.__name__
    ]
    assert {ast.Select, ast.CreateTable, ast.CreateView, ast.ColumnDef} <= set(nodes)
    for node in nodes:
        assert node.__dataclass_params__.frozen, node.__name__
        hints = typing.get_type_hints(node)
        for f in dataclasses.fields(node):
            assert not _mutable(hints[f.name]), f"{node.__name__}.{f.name}: {hints[f.name]}"
