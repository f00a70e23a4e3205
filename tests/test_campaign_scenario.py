"""Scenario test: a multi-week data-taking campaign, end to end.

Simulates the operational life of the paper's system rather than a
single call: nightly incremental ETL as new runs arrive, conditions
drifting with intervals of validity, mart re-materialization, schema
evolution mid-campaign, a database failure with replica failover, and
analysis queries through the web-service interface throughout. Every
step asserts global invariants (row conservation, value agreement,
monotonic virtual time).
"""

import pytest

from repro.common import DeterministicRNG
from repro.core import GridFederation
from repro.engine import Database
from repro.hep import (
    ConditionsDB,
    create_source_schema,
    etl_jobs_for_source,
    generate_ntuple,
    populate_source,
)
from repro.marts import materialize_view
from repro.warehouse import Warehouse

NVAR = 4
EVENTS_PER_RUN = 25


@pytest.fixture(scope="module")
def campaign():
    rng = DeterministicRNG("campaign")
    fed = GridFederation()
    fed.add_host("tier1.cern.ch", 1)

    source = Database("tier1_source", "oracle")
    create_source_schema(source)
    next_event = populate_source(
        source, rng.fork("night0"),
        {1: generate_ntuple(rng.fork("nt1"), EVENTS_PER_RUN, NVAR)},
    )
    warehouse = Warehouse(fed.network, fed.clock, nvar=NVAR)
    job = etl_jobs_for_source(source, "tier1.cern.ch", NVAR)[0]
    conditions = ConditionsDB(Database("conditions", "oracle"))
    conditions.store("hv_setting", 1500.0, valid_from=1)
    return rng, fed, source, warehouse, job, conditions, next_event


def take_run(source, rng, run_id, first_event_id):
    populate_source(
        source,
        rng.fork(f"night{run_id}"),
        {run_id: generate_ntuple(rng.fork(f"nt{run_id}"), EVENTS_PER_RUN, NVAR)},
        first_event_id=first_event_id,
    )
    return first_event_id + EVENTS_PER_RUN


class TestCampaign:
    def test_full_campaign(self, campaign):
        rng, fed, source, warehouse, job, conditions, next_event = campaign
        clock = fed.clock
        pipeline = warehouse.pipeline

        # --- night 0: first full load + verification -----------------------
        report = pipeline.run_incremental(job, "e.event_id")
        assert report.rows == EVENTS_PER_RUN
        assert pipeline.verify(job).ok

        # --- nights 1..3: new runs, incremental loads, drifting conditions --
        for night in (2, 3, 4):
            next_event = take_run(source, rng, night, next_event + 50)
            t0 = clock.now_ms
            delta = pipeline.run_incremental(job, "e.event_id")
            assert delta.rows == EVENTS_PER_RUN
            assert clock.now_ms > t0
            conditions.store("hv_setting", 1500.0 - night, valid_from=night)
        assert warehouse.row_count("event_fact") == 4 * EVENTS_PER_RUN
        assert pipeline.verify(job).ok

        # conditions history: IOV lookups see the right drift
        assert conditions.lookup("hv_setting", 1).value == 1500.0
        assert conditions.lookup("hv_setting", 3).value == 1497.0

        # --- materialize marts, serve them on two servers -------------------
        s1 = fed.create_server("jc1", "pc1.caltech.edu")
        s2 = fed.create_server("jc2", "pc2.caltech.edu")
        mart1 = Database("mart1", "mysql")
        mart2 = Database("mart2", "sqlite")
        fed.add_host("pc1.caltech.edu")
        fed.add_host("pc2.caltech.edu")
        materialize_view(warehouse, "v_event_wide", mart1, "pc1.caltech.edu")
        materialize_view(warehouse, "v_event_wide", mart2, "pc2.caltech.edu")
        fed.attach_database(s1, mart1, db_host="pc1.caltech.edu")
        # the second mart is a *replica*: same logical table on server 2
        fed.attach_database(s2, mart2, db_host="pc2.caltech.edu")

        client = fed.client("laptop.cern.ch")
        outcome = fed.query(
            client, s1, "SELECT COUNT(*) FROM v_event_wide"
        )
        assert outcome.answer.rows == [(4 * EVENTS_PER_RUN,)]

        # --- mid-campaign schema evolution -----------------------------------
        mart1.execute("CREATE TABLE quality_flags (run_id INT PRIMARY KEY, ok INT)")
        mart1.execute("INSERT INTO quality_flags VALUES (1,1),(2,1),(3,0),(4,1)")
        assert s1.service.tracker.poll() == ["mart1"]
        joined = fed.query(
            client,
            s1,
            "SELECT COUNT(*) FROM v_event_wide w JOIN quality_flags q "
            "ON w.run_id = q.run_id WHERE q.ok = 1",
        )
        assert joined.answer.rows == [(3 * EVENTS_PER_RUN,)]

        # --- database failure: queries fail over to the replica ---------------
        url1 = s1.service.dictionary.url_for("mart1")
        fed.directory.unregister(url1)
        survived = s1.service.execute("SELECT COUNT(*) FROM v_event_wide")
        assert survived.rows == [(4 * EVENTS_PER_RUN,)]

        # --- cross-check: replica agrees with the warehouse --------------------
        wh_sum = warehouse.db.execute("SELECT SUM(var_0) FROM event_fact").rows[0][0]
        mart_sum = mart2.execute("SELECT SUM(var_0) FROM v_event_wide").rows[0][0]
        assert mart_sum == pytest.approx(wh_sum)

    def test_virtual_time_reflects_campaign_scale(self, campaign):
        """Four nights of ETL + serving accumulate seconds of simulated
        time, deterministically."""
        _, fed, *_ = campaign
        assert fed.clock.now_ms > 1000
