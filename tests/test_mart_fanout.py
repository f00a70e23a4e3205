"""``MartSet.replicate`` reads each view once and fans it out.

On twin warehouses, one ``replicate`` must leave every mart, every
report and the clock exactly as sequential single-mart
``materialize_view`` calls do, each of which reads the view itself.
"""

import dataclasses

import pytest

from repro.common import DeterministicRNG
from repro.common.errors import ETLError
from repro.dialects import get_dialect
from repro.engine import Database
from repro.hep import build_tier_sources, etl_jobs_for_source
from repro.marts import MartSet, materialize_view
from repro.net import Network, SimClock
from repro.warehouse import Warehouse
from repro.warehouse.etl import ETLJob, ETLPipeline, extract

VIEWS = ["v_event_wide", "v_run_summary", "v_calibration"]
VENDORS = ["mysql", "mssql", "oracle", "sqlite"]


def loaded_warehouse() -> Warehouse:
    net = Network()
    net.add_host("tier1", 1)
    net.add_host("tier2", 2)
    t1, t2 = build_tier_sources(DeterministicRNG("fanout"), n_runs=3, events_per_run=20, nvar=6)
    wh = Warehouse(net, SimClock(), nvar=6)
    for job in etl_jobs_for_source(t1, "tier1", 6) + etl_jobs_for_source(t2, "tier2", 6):
        wh.load(job)
    return wh


def marts_for(wh: Warehouse) -> list[tuple[Database, str]]:
    marts = [(Database(f"mart_{v}", v), f"mart{i}.caltech.edu") for i, v in enumerate(VENDORS)]
    for _db, host in marts:
        wh.network.add_host(host, tier=2)
    return marts


def view_job(wh: Warehouse, view: str) -> ETLJob:
    return ETLJob(wh.db, wh.host, f"SELECT * FROM {view}", view)


def count_view_reads(monkeypatch, wh: Warehouse) -> dict[str, int]:
    reads = dict.fromkeys(VIEWS, 0)
    resolve = wh.db.resolve_table

    def counting(name):
        if name in reads:
            reads[name] += 1
        return resolve(name)

    monkeypatch.setattr(wh.db, "resolve_table", counting)
    return reads


def test_replicate_equals_sequential_materialize(monkeypatch):
    fanned, single = loaded_warehouse(), loaded_warehouse()
    fanned_marts, single_marts = marts_for(fanned), marts_for(single)
    reads = count_view_reads(monkeypatch, fanned)

    mart_set = MartSet(fanned)
    mart_set.marts.extend(fanned_marts)
    got = mart_set.replicate(VIEWS)
    want = [
        materialize_view(single, view, db, host)
        for view in VIEWS
        for db, host in single_marts
    ]

    assert reads == dict.fromkeys(VIEWS, 1)
    # bit-equal: repr tells every float apart
    assert [repr(dataclasses.astuple(r)) for r in got] == [
        repr(dataclasses.astuple(r)) for r in want
    ]
    assert fanned.clock.now_ms == single.clock.now_ms
    assert fanned.network.bytes_moved == single.network.bytes_moved
    for (got_db, _), (want_db, _) in zip(fanned_marts, single_marts):
        dialect = get_dialect(got_db.vendor)
        for view in VIEWS:
            got_table = got_db.catalog.get_table(view)
            want_table = want_db.catalog.get_table(view)
            assert got_table.columns == want_table.columns
            assert dialect.render_create_table(view, got_table.columns) == (
                dialect.render_create_table(view, want_table.columns)
            )
            assert repr(got_table.rows) == repr(want_table.rows)


def test_run_rejects_an_extract_of_another_job():
    wh = loaded_warehouse()
    mart = Database("m", "mysql")
    wh.network.add_host("marthost", tier=2)
    materialize_view(wh, "v_run_summary", mart, "marthost")
    other = extract(view_job(wh, "v_calibration"))
    pipeline = ETLPipeline(wh.network, wh.clock, mart, "marthost", autocommit=True)
    before = wh.clock.now_ms
    with pytest.raises(ETLError, match="does not match"):
        pipeline.run(view_job(wh, "v_run_summary"), extracted=other)
    # nothing was charged or landed
    assert wh.clock.now_ms == before
    assert mart.catalog.get_table("v_run_summary").row_count == 3


def test_materialize_rejects_a_mismatched_extract_before_touching_the_mart():
    wh = loaded_warehouse()
    mart = Database("m", "sqlite")
    wh.network.add_host("marthost", tier=2)
    materialize_view(wh, "v_run_summary", mart, "marthost")
    other = extract(view_job(wh, "v_calibration"))
    with pytest.raises(ETLError):
        materialize_view(wh, "v_run_summary", mart, "marthost", extracted=other)
    assert mart.catalog.get_table("v_run_summary").row_count == 3


# Oracle is left out: its mart DDL spells BIGINT and INTEGER as NUMBER,
# which the engine stores as DECIMAL, a float (ROADMAP item 13), so its
# event_id and run_id come back as floats.
@pytest.mark.parametrize("vendor", ["mysql", "mssql", "sqlite"])
def test_replicated_event_wide_equals_the_warehouse_view(vendor):
    wh = loaded_warehouse()
    mart = Database(f"mart_{vendor}", vendor)
    marts = MartSet(wh)
    marts.add_mart(mart, "mart.caltech.edu")
    marts.replicate(["v_event_wide"])
    view = wh.db.execute("SELECT * FROM v_event_wide")
    copy = mart.execute("SELECT * FROM v_event_wide")
    assert copy.columns == view.columns
    assert len(view.rows) == 60
    # repr tells 1, 1.0 and '1' apart: value by value and type by type
    assert repr(copy.rows) == repr(view.rows)
