"""Golden query path: rows and exact simulated ms, per route and layer set.

Every sub-query route the data access service can take (pool, jdbc,
remote, sub-result cache hit, failover replica, ``allow_partial``
partial, failover after a plan-cache hit) and the standalone Unity
driver run under five layer settings. Each entry pins the answer's
routes, a digest of its rows and the simulated milliseconds the query
charged, compared exactly: a refactor of the query path must leave
every one unchanged. Regenerate the table after an intended cost-model
change with ``PYTHONPATH=src python tests/test_golden_query_path.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import GridFederation
from repro.dialects import get_dialect
from repro.driver.directory import Directory
from repro.engine import Database
from repro.metadata import DataDictionary, generate_lower_xspec
from repro.net.network import Network
from repro.net.simclock import SimClock
from repro.unity import UnityDriver

SETTINGS = {
    "off": {},
    "cache": {"cache": True},
    "observe": {"observe": True},
    "resilience": {"resilience": True},
    "all": {"cache": True, "observe": True, "resilience": True},
}

EVENTS_SQL = "SELECT event_id, energy FROM events WHERE energy > 2 ORDER BY event_id"
JOIN_SQL = (
    "SELECT e.event_id, r.detector FROM events e "
    "INNER JOIN runs r ON e.run_id = r.run_id ORDER BY e.event_id"
)
PARAM_SQL = "SELECT COUNT(*), SUM(energy) FROM events WHERE energy > ?"


def _events_db(name: str, vendor: str = "mysql") -> Database:
    db = Database(name, vendor)
    db.execute(
        "CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, RUN_ID INT, ENERGY DOUBLE)"
    )
    for i in range(12):
        db.execute(f"INSERT INTO EVT VALUES ({i}, {i % 3}, {i * 0.75})")
    return db


def _runs_db(name: str = "runs_mart", vendor: str = "mssql") -> Database:
    db = Database(name, vendor)
    db.execute("CREATE TABLE RUN_INFO (RUN_ID INT PRIMARY KEY, DETECTOR VARCHAR(20))")
    for i, det in enumerate(("cms", "atlas", "lhcb")):
        db.execute(f"INSERT INTO RUN_INFO VALUES ({i}, '{det}')")
    return db


def _federation(layers: dict, force_jdbc: bool = False):
    """Server jc1 holds events (mysql on db1, sqlite replica on db2) and
    runs (mssql on db3); server jc2 holds calib (oracle)."""
    fed = GridFederation()
    s1 = fed.create_server("jc1", "pc1", force_jdbc=force_jdbc, **layers)
    s2 = fed.create_server("jc2", "pc2", **layers)
    names = {"EVT": "events"}
    fed.attach_database(s1, _events_db("primary_mart"), "db1", names)
    fed.attach_database(s1, _events_db("replica_mart", "sqlite"), "db2", names)
    fed.attach_database(s1, _runs_db(), "db3", {"RUN_INFO": "runs"})
    fed.attach_database(
        s2, _runs_db("calib_mart", "oracle"), "db4", {"RUN_INFO": "calib"}
    )
    return fed, s1.service


def _timed(fed, service, sql, params=(), allow_partial=False):
    t0 = fed.clock.now_ms
    answer = service.execute(sql, params, allow_partial=allow_partial)
    return answer, fed.clock.now_ms - t0


def _entry(answer, ms):
    digest = hashlib.sha256(repr(answer.rows).encode()).hexdigest()[:16]
    return (tuple(answer.routes), digest, ms)


def run_route(route: str, layers: dict):
    """(routes, row digest, simulated ms) of one route's measured query."""
    if route == "driver":
        return _driver_entry(layers)
    fed, service = _federation(layers, force_jdbc=(route == "failover_warm_plan"))
    if route == "pool":
        return _entry(*_timed(fed, service, EVENTS_SQL))
    if route == "jdbc":
        return _entry(*_timed(fed, service, "SELECT * FROM runs ORDER BY run_id"))
    if route == "remote":
        return _entry(*_timed(fed, service, "SELECT detector FROM calib"))
    if route == "cache":
        _timed(fed, service, JOIN_SQL)
        return _entry(*_timed(fed, service, JOIN_SQL))
    if route == "failover":
        fed.network.fail_host("db1")
        return _entry(*_timed(fed, service, EVENTS_SQL))
    if route == "partial":
        fed.network.fail_host("db1")
        fed.network.fail_host("db2")
        return _entry(*_timed(fed, service, EVENTS_SQL, allow_partial=True))
    if route == "failover_warm_plan":
        # the plan is cached while db1 lives; the repeat (new params, so
        # no sub-result hit) fails over to the replica on db2
        _timed(fed, service, PARAM_SQL, (1.0,))
        fed.network.fail_host("db1")
        return _entry(*_timed(fed, service, PARAM_SQL, (2.0,)))
    raise ValueError(route)


def _driver_entry(layers: dict):
    """The standalone Unity driver: a cold join, then its repeat."""
    network = Network()
    directory = Directory()
    dictionary = DataDictionary()
    for host in ("client", "db1", "db3"):
        network.add_host(host)
    for db, host, names in (
        (_events_db("primary_mart"), "db1", {"EVT": "events"}),
        (_runs_db(), "db3", {"RUN_INFO": "runs"}),
    ):
        url = get_dialect(db.vendor).make_url(host, None, db.name)
        directory.register(url, db, user="grid", password="grid", host_name=host)
        dictionary.add_database(generate_lower_xspec(db, names), url)
    clock = SimClock()
    driver = UnityDriver(
        dictionary, directory, clock=clock, network=network, host="client", **layers
    )
    driver.execute(JOIN_SQL)
    t0 = clock.now_ms
    result = driver.execute(JOIN_SQL)
    return _entry(_DriverAnswer(result), clock.now_ms - t0)


class _DriverAnswer:
    def __init__(self, result):
        self.rows = result.rows
        self.routes = [t.via for t in result.traces]


ROUTES = (
    "pool", "jdbc", "remote", "cache", "failover", "partial",
    "failover_warm_plan", "driver",
)

GOLDEN = {
    ('pool', 'all'): (('pool',), '005f2c4e93968bf7', 19.16856000000007),
    ('pool', 'cache'): (('pool',), '005f2c4e93968bf7', 19.168559999999957),
    ('pool', 'observe'): (('pool',), '005f2c4e93968bf7', 19.16856000000007),
    ('pool', 'off'): (('pool',), '005f2c4e93968bf7', 19.168559999999957),
    ('pool', 'resilience'): (('pool',), '005f2c4e93968bf7', 19.168559999999957),
    ('jdbc', 'all'): (('jdbc',), '1b656c0ea322956a', 417.42816000000016),
    ('jdbc', 'cache'): (('jdbc',), '1b656c0ea322956a', 417.4281600000003),
    ('jdbc', 'observe'): (('jdbc',), '1b656c0ea322956a', 417.42816000000016),
    ('jdbc', 'off'): (('jdbc',), '1b656c0ea322956a', 417.4281600000003),
    ('jdbc', 'resilience'): (('jdbc',), '1b656c0ea322956a', 417.4281600000003),
    ('remote', 'all'): (('remote',), '5904a6971fab5293', 70.39948000000004),
    ('remote', 'cache'): (('remote',), '5904a6971fab5293', 70.10491999999988),
    ('remote', 'observe'): (('remote',), '5904a6971fab5293', 70.39948000000004),
    ('remote', 'off'): (('remote',), '5904a6971fab5293', 70.10491999999988),
    ('remote', 'resilience'): (('remote',), '5904a6971fab5293', 70.10491999999988),
    ('cache', 'all'): (('cache', 'cache'), '78cd5a6fcf3f918f', 2.5820000000001073),
    ('cache', 'cache'): (('cache', 'cache'), '78cd5a6fcf3f918f', 2.5820000000001073),
    ('cache', 'observe'): (('pool', 'jdbc'), '78cd5a6fcf3f918f', 418.0101599999996),
    ('cache', 'off'): (('pool', 'jdbc'), '78cd5a6fcf3f918f', 418.01016000000027),
    ('cache', 'resilience'): (('pool', 'jdbc'), '78cd5a6fcf3f918f', 418.01016000000027),
    ('failover', 'all'): (('pool',), '005f2c4e93968bf7', 6069.647760000001),
    ('failover', 'cache'): (('pool',), '005f2c4e93968bf7', 3031.7045599999997),
    ('failover', 'observe'): (('pool',), '005f2c4e93968bf7', 3031.704560000001),
    ('failover', 'off'): (('pool',), '005f2c4e93968bf7', 3031.7045599999997),
    ('failover', 'resilience'): (('pool',), '005f2c4e93968bf7', 6069.647760000001),
    ('partial', 'all'): (('failed',), '4f53cda18c2baa0c', 12106.9584),
    ('partial', 'cache'): (('failed',), '4f53cda18c2baa0c', 6031.479200000001),
    ('partial', 'observe'): (('failed',), '4f53cda18c2baa0c', 6031.479200000001),
    ('partial', 'off'): (('failed',), '4f53cda18c2baa0c', 6031.479200000001),
    ('partial', 'resilience'): (('failed',), '4f53cda18c2baa0c', 12106.9584),
    # the replica's metadata parse (UNITY_METADATA_PARSE_MS) is charged even
    # though the plan came from the plan cache
    ('failover_warm_plan', 'all'): (('jdbc',), '16d5b4ee6bec59ca', 6513.68942),
    ('failover_warm_plan', 'cache'): (('jdbc',), '16d5b4ee6bec59ca', 3287.7300200000004),
    ('failover_warm_plan', 'observe'): (('jdbc',), '16d5b4ee6bec59ca', 3373.73002),
    ('failover_warm_plan', 'off'): (('jdbc',), '16d5b4ee6bec59ca', 3373.7300200000004),
    ('failover_warm_plan', 'resilience'): (('jdbc',), '16d5b4ee6bec59ca', 6679.68942),
    ('driver', 'all'): (('cache', 'cache'), '78cd5a6fcf3f918f', 4.581999999999994),
    ('driver', 'cache'): (('cache', 'cache'), '78cd5a6fcf3f918f', 4.581999999999994),
    ('driver', 'observe'): (('jdbc', 'jdbc'), '78cd5a6fcf3f918f', 699.1562400000005),
    ('driver', 'off'): (('jdbc', 'jdbc'), '78cd5a6fcf3f918f', 699.1562400000005),
    ('driver', 'resilience'): (('jdbc', 'jdbc'), '78cd5a6fcf3f918f', 699.1562400000005),
}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("route", ROUTES)
def test_golden_entry(route, setting):
    assert run_route(route, SETTINGS[setting]) == GOLDEN[(route, setting)]


if __name__ == "__main__":
    print("GOLDEN = {")
    for route in ROUTES:
        for setting in sorted(SETTINGS):
            print(f"    ({route!r}, {setting!r}): {run_route(route, SETTINGS[setting])!r},")
    print("}")
