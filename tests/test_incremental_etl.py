"""Tests for incremental (watermark) ETL loads."""

import pytest

from repro.common import DeterministicRNG
from repro.common.errors import ETLError
from repro.engine import Database
from repro.hep import (
    create_source_schema,
    etl_jobs_for_source,
    generate_ntuple,
    populate_source,
)
from repro.net import Network, SimClock
from repro.warehouse import Warehouse

NVAR = 4


@pytest.fixture
def world():
    net = Network()
    clock = SimClock()
    net.add_host("tier1", 1)
    rng = DeterministicRNG("inc")
    source = Database("src", "oracle")
    create_source_schema(source)
    populate_source(source, rng, {1: generate_ntuple(rng.fork("a"), 20, NVAR)})
    wh = Warehouse(net, clock, nvar=NVAR)
    job = etl_jobs_for_source(source, "tier1", NVAR)[0]
    return source, wh, job, rng


def add_run(source, rng, run_id, n_events, first_event_id):
    populate_source(
        source,
        rng.fork(f"run{run_id}"),
        {run_id: generate_ntuple(rng.fork(f"nt{run_id}"), n_events, NVAR)},
        first_event_id=first_event_id,
    )


class TestIncrementalETL:
    def test_first_incremental_is_a_full_load(self, world):
        _, wh, job, _ = world
        report = wh.pipeline.run_incremental(job, "e.event_id")
        assert report.rows == 20
        assert wh.pipeline.watermarks["event_fact"] == 20

    def test_second_run_ships_only_new_rows(self, world):
        source, wh, job, rng = world
        wh.pipeline.run_incremental(job, "e.event_id")
        add_run(source, rng, run_id=2, n_events=7, first_event_id=100)
        report = wh.pipeline.run_incremental(job, "e.event_id")
        assert report.rows == 7
        assert wh.row_count("event_fact") == 27
        assert wh.pipeline.watermarks["event_fact"] == 106

    def test_no_new_rows_ships_nothing(self, world):
        _, wh, job, _ = world
        wh.pipeline.run_incremental(job, "e.event_id")
        report = wh.pipeline.run_incremental(job, "e.event_id")
        assert report.rows == 0
        assert wh.row_count("event_fact") == 20

    def test_incremental_avoids_duplicate_pk(self, world):
        """Full reload would explode on PK; incremental never re-ships."""
        source, wh, job, rng = world
        wh.pipeline.run_incremental(job, "e.event_id")
        add_run(source, rng, 2, 5, 200)
        wh.pipeline.run_incremental(job, "e.event_id")  # no IntegrityError
        assert wh.row_count("event_fact") == 25

    def test_incremental_cheaper_than_full(self, world):
        source, wh, job, rng = world
        wh.pipeline.run_incremental(job, "e.event_id")
        add_run(source, rng, 2, 2, 300)
        clock = wh.clock
        t0 = clock.now_ms
        wh.pipeline.run_incremental(job, "e.event_id")
        delta_cost = clock.now_ms - t0
        # a full reload of 22 events into a fresh warehouse for comparison
        wh2 = Warehouse(wh.network, clock, nvar=NVAR)
        t1 = clock.now_ms
        wh2.pipeline.run(job)
        full_cost = clock.now_ms - t1
        assert delta_cost < full_cost / 3

    def test_bad_watermark_output_raises(self, world):
        _, wh, job, _ = world
        with pytest.raises(ETLError):
            wh.pipeline.run_incremental(job, "e.ghost")
        # refused before loading: nothing landed, so a retry cannot
        # double-load, and the first good run loads every row once
        assert wh.db.catalog.get_table(job.target_table).row_count == 0
        assert wh.pipeline.run_incremental(job, "e.event_id").rows == 20

    def test_values_identical_to_full_load(self, world):
        source, wh, job, rng = world
        wh.pipeline.run_incremental(job, "e.event_id")
        add_run(source, rng, 2, 4, 400)
        wh.pipeline.run_incremental(job, "e.event_id")
        # a from-scratch full load into a second warehouse must agree
        wh_full = Warehouse(wh.network, wh.clock, nvar=NVAR)
        wh_full.pipeline.run(job)
        a = wh.db.execute(
            "SELECT event_id, var_0 FROM event_fact ORDER BY event_id"
        ).rows
        b = wh_full.db.execute(
            "SELECT event_id, var_0 FROM event_fact ORDER BY event_id"
        ).rows
        assert a == b
