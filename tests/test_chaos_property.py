"""Hypothesis chaos property: queries are never silently wrong.

Random fail/restore schedules run against a resilient federation with a
replicated table. The §4.8 resilience contract, as a single invariant:
every query either

* succeeds with exactly the ground-truth rows,
* returns ``partial=True`` with non-empty failure provenance, or
* raises ``ConnectionFailedError``;

it never returns unflagged wrong or short answers. Exercised both with
``allow_partial`` on (outcomes 1–2) and off (outcomes 1 and 3).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common import ConnectionFailedError
from repro.core import GridFederation
from repro.engine import Database
from repro.resilience import ChaosSchedule, ResilienceConfig

SQL = "SELECT event_id, energy FROM events ORDER BY event_id"
DB_HOSTS = ("pc2", "pc3")


def make_events_db(name, vendor="mysql", n=7):
    db = Database(name, vendor)
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, ENERGY DOUBLE)")
    for i in range(n):
        db.execute(f"INSERT INTO EVT VALUES ({i}, {i * 1.0})")
    return db


def build_federation():
    fed = GridFederation()
    config = ResilienceConfig(cooldown_ms=2_000.0)
    server = fed.create_server("jc1", "pc1", resilience=config)
    fed.attach_database(
        server, make_events_db("primary_mart"),
        db_host="pc2", logical_names={"EVT": "events"},
    )
    fed.attach_database(
        server, make_events_db("replica_mart", vendor="sqlite"),
        db_host="pc3", logical_names={"EVT": "events"},
    )
    return fed, server


#: one chaos step: which host, kill or heal, and how long to idle after
chaos_steps = st.lists(
    st.tuples(
        st.sampled_from(DB_HOSTS),
        st.booleans(),  # True = fail, False = restore
        st.floats(min_value=0.0, max_value=5_000.0),
    ),
    min_size=1,
    max_size=8,
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=chaos_steps, allow_partial=st.booleans())
def test_chaos_never_silently_wrong(steps, allow_partial):
    fed, server = build_federation()
    truth = server.service.execute(SQL).rows
    assert truth  # the invariant below is vacuous on an empty table

    schedule = ChaosSchedule()
    at = fed.clock.now_ms
    for host, kill, idle_ms in steps:
        at += idle_ms
        if kill:
            schedule.fail_host(at, host)
        else:
            schedule.restore_host(at, host)
    driver = schedule.driver(fed.network, fed.clock)

    while True:
        driver.tick()
        try:
            answer = server.service.execute(SQL, allow_partial=allow_partial)
        except ConnectionFailedError:
            # outcome 3: an honest refusal (includes breaker fast-fails)
            assert not allow_partial or _planning_failed(fed)
        else:
            if answer.partial:
                # outcome 2: flagged degradation with provenance
                assert allow_partial
                assert answer.failures
                assert all(f.error and f.logical_table for f in answer.failures)
            else:
                # outcome 1: the full, correct answer — never short
                assert answer.rows == truth
        if len(driver.applied) == len(driver.schedule.events):
            break
        fed.clock.advance_ms(250.0)


def _planning_failed(fed) -> bool:
    """allow_partial still raises when no sub-query ever ran.

    Degradation is per sub-query; a connection failure *before* the
    fetch stage (e.g. the RLS host itself partitioned) is outcome 3
    even for a partial-tolerant caller. With only database hosts dying
    in this schedule, that cannot happen — so reaching here with
    ``allow_partial`` on is a real violation.
    """
    return False


def test_partial_rows_never_mislabelled():
    """A partial answer's surviving rows are a subset of the truth."""
    fed, server = build_federation()
    truth = server.service.execute(SQL).rows
    fed.network.fail_host("pc2")
    fed.network.fail_host("pc3")
    answer = server.service.execute(SQL, allow_partial=True)
    assert answer.partial and answer.failures
    assert set(answer.rows) <= set(truth)


def test_partial_off_is_the_default():
    fed, server = build_federation()
    fed.network.fail_host("pc2")
    fed.network.fail_host("pc3")
    with pytest.raises(ConnectionFailedError):
        server.service.execute(SQL)
