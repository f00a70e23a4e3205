"""Unit tests for the POOL-RAL layer: vendor matrix and handle cache."""

import pytest

from repro.common import UnsupportedVendorError
from repro.dialects import get_dialect
from repro.driver import Directory
from repro.engine import Database
from repro.net import SimClock, costs
from repro.poolral import PoolRAL


@pytest.fixture
def world():
    directory = Directory()
    clock = SimClock()
    for vendor, name in (("mysql", "m1"), ("mssql", "s1"), ("sqlite", "l1")):
        db = Database(name, vendor)
        db.execute("CREATE TABLE t (a INT, b VARCHAR(10))")
        db.execute("INSERT INTO t VALUES (1,'x'),(2,'y')")
        url = get_dialect(vendor).make_url("h", None, name)
        directory.register(url, db, host_name="h")
    ral = PoolRAL(directory, clock)
    return directory, clock, ral


def url_for(vendor, name):
    return get_dialect(vendor).make_url("h", None, name)


class TestVendorMatrix:
    def test_supported_vendors(self, world):
        _, _, ral = world
        assert ral.supports_url(url_for("mysql", "m1"))
        assert ral.supports_url(url_for("sqlite", "l1"))
        assert not ral.supports_url(url_for("mssql", "s1"))

    def test_initialize_unsupported_raises(self, world):
        _, _, ral = world
        with pytest.raises(UnsupportedVendorError):
            ral.initialize(url_for("mssql", "s1"))


class TestHandleCache:
    def test_initialize_once(self, world):
        _, clock, ral = world
        url = url_for("mysql", "m1")
        h1 = ral.initialize(url)
        t = clock.now_ms
        h2 = ral.initialize(url)
        assert h1 is h2
        assert clock.now_ms == t  # cached: free

    def test_first_initialize_pays_connect(self, world):
        _, clock, ral = world
        ral.initialize(url_for("mysql", "m1"))
        cost = get_dialect("mysql").cost
        assert clock.now_ms >= costs.POOL_INIT_HANDLE_MS + cost.connect_ms + cost.auth_ms

    def test_execute_reuses_handle_without_connect(self, world):
        _, clock, ral = world
        url = url_for("mysql", "m1")
        ral.initialize(url)
        t = clock.now_ms
        cursor = ral.execute_sql(url, "SELECT a FROM t ORDER BY a")
        assert cursor.fetchall() == [(1,), (2,)]
        spent = clock.now_ms - t
        # far cheaper than a fresh JDBC connect
        assert spent < get_dialect("mysql").cost.connect_ms

    def test_execute_auto_initializes(self, world):
        _, _, ral = world
        cursor = ral.execute_sql(url_for("sqlite", "l1"), "SELECT COUNT(*) FROM t")
        assert cursor.fetchall() == [(2,)]
        assert ral.handle_count() == 1

    def test_query_counter(self, world):
        _, _, ral = world
        url = url_for("mysql", "m1")
        handle = ral.initialize(url)
        ral.execute_sql(url, "SELECT a FROM t")
        ral.execute_sql(url, "SELECT b FROM t")
        assert handle.queries_executed == 2

