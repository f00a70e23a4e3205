"""Tests for IOV conditions, ETL verification and network partitions."""

import pytest

from repro.common import ConnectionFailedError, DeterministicRNG, ReproError
from repro.engine import Database
from repro.hep.conditions import INFINITE_RUN, ConditionsDB
from repro.net import Network, SimClock, costs


class TestConditionsDB:
    @pytest.fixture
    def conditions(self):
        return ConditionsDB(Database("cond", "oracle"))

    def test_store_and_lookup(self, conditions):
        conditions.store("hv_setting", 1500.0, valid_from=1, valid_to=100)
        value = conditions.lookup("hv_setting", 50)
        assert value.value == 1500.0
        assert value.version == 1

    def test_open_ended_interval(self, conditions):
        conditions.store("b_field", 3.8, valid_from=10)
        assert conditions.lookup("b_field", 10**6).value == 3.8

    def test_out_of_interval_raises(self, conditions):
        conditions.store("hv_setting", 1500.0, 10, 20)
        with pytest.raises(ReproError):
            conditions.lookup("hv_setting", 5)

    def test_newest_version_wins_on_overlap(self, conditions):
        conditions.store("gain", 1.00, 1, 100)
        conditions.store("gain", 1.05, 50, 100)  # supersedes the tail
        assert conditions.lookup("gain", 25).value == 1.00
        assert conditions.lookup("gain", 75).value == 1.05

    def test_interval_boundaries_inclusive(self, conditions):
        conditions.store("t", 7.0, 10, 20)
        assert conditions.lookup("t", 10).value == 7.0
        assert conditions.lookup("t", 20).value == 7.0

    def test_invalid_interval_rejected(self, conditions):
        with pytest.raises(ReproError):
            conditions.store("x", 1.0, 20, 10)

    def test_history_ordered_by_version(self, conditions):
        conditions.store("x", 1.0, 1, 10)
        conditions.store("x", 2.0, 11, 20)
        rows = conditions.db.execute(
            f"SELECT version, value FROM {conditions.TABLE} WHERE name = 'x' ORDER BY version"
        ).rows
        assert rows == [(1, 1.0), (2, 2.0)]

    def test_snapshot(self, conditions):
        conditions.store("a", 1.0, 1, INFINITE_RUN)
        conditions.store("b", 2.0, 1, 5)
        snap = conditions.snapshot(10)
        assert snap == {"a": 1.0}

    def test_persists_across_wrapper_instances(self, conditions):
        conditions.store("x", 5.0, 1, 10)
        reopened = ConditionsDB(conditions.db)
        assert reopened.lookup("x", 5).value == 5.0
        reopened.store("y", 1.0, 1, 2)  # id allocation continues safely

    def test_federates_like_any_table(self, conditions):
        """Conditions are ordinary rows: the grid can serve them."""
        from repro.core import GridFederation

        conditions.store("hv_setting", 1500.0, 1, 100)
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")
        fed.attach_database(server, conditions.db)
        answer = server.service.execute(
            "SELECT value FROM condition_iov WHERE name = 'hv_setting' "
            "AND 50 BETWEEN valid_from AND valid_to"
        )
        assert answer.rows == [(1500.0,)]


class TestETLVerification:
    @pytest.fixture
    def loaded(self):
        from repro.hep import create_source_schema, etl_jobs_for_source, generate_ntuple, populate_source
        from repro.warehouse import Warehouse

        net = Network()
        clock = SimClock()
        net.add_host("tier1", 1)
        rng = DeterministicRNG("verify")
        src = Database("src", "oracle")
        create_source_schema(src)
        populate_source(src, rng, {1: generate_ntuple(rng.fork("nt"), 30, 4)})
        wh = Warehouse(net, clock, nvar=4)
        job = etl_jobs_for_source(src, "tier1", 4)[0]
        wh.load(job)
        return wh, job

    def test_clean_load_verifies(self, loaded):
        wh, job = loaded
        report = wh.pipeline.verify(job)
        assert report.ok
        assert report.expected_rows == 30
        assert not report.failures()

    def test_lost_rows_detected(self, loaded):
        wh, job = loaded
        table = wh.db.catalog.get_table("event_fact")
        key = table.column_position("event_id")
        table.replace_rows([r for r in table.rows if r[key] > 3])
        report = wh.pipeline.verify(job)
        assert not report.ok
        names = [n for n, _ in report.failures()]
        assert "row_presence" in names

    def test_corrupted_value_detected(self, loaded):
        wh, job = loaded
        table = wh.db.catalog.get_table("event_fact")
        key, var = table.column_position("event_id"), table.column_position("var_0")
        table.replace_rows([
            r[:var] + (r[var] + 1,) + r[var + 1:] if r[key] == 1 else r
            for r in table.rows
        ])
        report = wh.pipeline.verify(job)
        assert not report.ok


class TestNetworkPartition:
    @pytest.fixture
    def net(self):
        n = Network()
        n.add_host("a")
        n.add_host("b")
        return n

    def test_failed_link_raises_after_timeout(self, net):
        clock = SimClock()
        net.fail_link("a", "b")
        with pytest.raises(ConnectionFailedError):
            net.transfer("a", "b", 10, clock)
        assert clock.now_ms == pytest.approx(costs.PARTITION_TIMEOUT_MS)

    def test_restore_link(self, net):
        net.fail_link("a", "b")
        net.restore_link("a", "b")
        net.transfer("a", "b", 10, SimClock())

    def test_failed_host_unreachable_from_everywhere(self, net):
        net.add_host("c")
        net.fail_host("b")
        assert not net.is_reachable("a", "b")
        assert net.is_reachable("a", "c")
        with pytest.raises(ConnectionFailedError):
            net.transfer("c", "b", 10, SimClock())

    def test_loopback_unaffected_by_link_failures(self, net):
        net.fail_link("a", "b")
        net.transfer("a", "a", 10, SimClock())

    def test_partitioned_remote_server_fails_query(self):
        from repro.core import GridFederation

        fed = GridFederation()
        s1 = fed.create_server("jc1", "pc1")
        s2 = fed.create_server("jc2", "pc2")
        db = Database("m", "mysql")
        db.execute("CREATE TABLE T (A INT PRIMARY KEY)")
        fed.attach_database(s2, db, logical_names={"T": "remote_t"})
        fed.network.fail_link("pc1", "pc2")
        with pytest.raises(ConnectionFailedError):
            s1.service.execute("SELECT a FROM remote_t")
        # after the partition heals, the query works
        fed.network.restore_link("pc1", "pc2")
        answer = s1.service.execute("SELECT COUNT(*) FROM remote_t")
        assert answer.rows == [(0,)]
