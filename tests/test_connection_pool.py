"""Tests for JDBC connection pooling."""

import pytest

from repro.core import GridFederation
from repro.dialects import get_dialect
from repro.driver import Directory
from repro.driver import pool as pool_module
from repro.driver.pool import ConnectionPool
from repro.engine import Database
from repro.net import SimClock


@pytest.fixture
def pooled():
    directory = Directory()
    clock = SimClock()
    db = Database("m", "mssql")
    db.execute("CREATE TABLE T (A INT)")
    db.execute("INSERT INTO T VALUES (1)")
    url = get_dialect("mssql").make_url("h", None, "m")
    directory.register(url, db, host_name="h")
    pool = ConnectionPool(directory, clock=clock)
    return pool, url, clock


class TestConnectionPool:
    def test_first_get_dials(self, pooled):
        pool, url, clock = pooled
        conn = pool.get(url)
        assert pool.stats.misses == 1
        assert clock.now_ms > 0  # paid the connect

    def test_release_then_get_is_hit_and_free(self, pooled):
        pool, url, clock = pooled
        conn = pool.get(url)
        pool.release(conn)
        t = clock.now_ms
        again = pool.get(url)
        assert again is conn
        assert pool.stats.hits == 1
        assert clock.now_ms == t  # no connect cost on a hit

    def test_closed_connections_discarded(self, pooled):
        pool, url, _ = pooled
        conn = pool.get(url)
        conn.close()
        pool.release(conn)
        assert pool.stats.discarded == 1
        assert pool.get(url) is not conn
        assert pool.stats.misses == 2

    def test_max_idle_bound(self, pooled, monkeypatch):
        pool, url, _ = pooled
        monkeypatch.setattr(pool_module, "MAX_IDLE_PER_KEY", 2)
        conns = [pool.get(url) for _ in range(4)]
        for c in conns:
            pool.release(c)
        assert pool.stats.discarded == 2
        reused = [pool.get(url) for _ in range(2)]
        assert {id(c) for c in reused} == {id(c) for c in conns[:2]}
        assert pool.stats.hits == 2

    def test_per_user_keying(self, pooled):
        pool, url, _ = pooled
        conn = pool.get(url)
        pool.release(conn, user="grid")
        # a different user must not inherit grid's session
        with pytest.raises(Exception):
            pool.get(url, user="other", password="pw")


class TestPooledService:
    def make(self, jdbc_pooling):
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1", jdbc_pooling=jdbc_pooling)
        runs = Database("runs_mart", "mssql")
        runs.execute("CREATE TABLE RUNS (RUN_ID INT PRIMARY KEY)")
        runs.execute("INSERT INTO RUNS VALUES (0), (1)")
        fed.attach_database(server, runs)
        return fed, server

    def test_second_query_is_cheap_with_pooling(self):
        fed, server = self.make(jdbc_pooling=True)
        server.service.execute("SELECT COUNT(*) FROM runs")  # warms the pool
        t = fed.clock.now_ms
        server.service.execute("SELECT COUNT(*) FROM runs")
        warm = fed.clock.now_ms - t

        fed2, server2 = self.make(jdbc_pooling=False)
        server2.service.execute("SELECT COUNT(*) FROM runs")
        t = fed2.clock.now_ms
        server2.service.execute("SELECT COUNT(*) FROM runs")
        cold = fed2.clock.now_ms - t
        assert warm < cold / 5

    def test_answers_identical(self):
        fed, server = self.make(jdbc_pooling=True)
        fed2, server2 = self.make(jdbc_pooling=False)
        sql = "SELECT run_id FROM runs ORDER BY run_id"
        assert (
            server.service.execute(sql).rows == server2.service.execute(sql).rows
        )

    def test_pool_stats_visible(self):
        fed, server = self.make(jdbc_pooling=True)
        server.service.execute("SELECT COUNT(*) FROM runs")
        server.service.execute("SELECT COUNT(*) FROM runs")
        stats = server.service.router.jdbc_pool.stats
        assert stats.misses == 1 and stats.hits == 1
