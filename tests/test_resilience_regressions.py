"""Regression tests for the failover-path bug sweep.

One class per fixed bug:

1. ``_run_with_failover`` swallowed *every* exception around remote
   discovery (``except (FederationError, Exception)``) — a programming
   error in the RLS client came back as a bogus connection failure.
2. A clock-less service crashed on multi-branch plans
   (``None.run_parallel``). A service now always runs on its server's
   clock, which ``ClarensServer`` requires, so this one has no class.
3. The client session cache keyed only on the user, so a reconnect
   with a wrong password silently rode the old authenticated session;
   and a server restart left clients holding dead session ids.
4. ``ReplicaSelector.score`` trusted the driver directory alone — a
   registered database on a partitioned host was still "available".
5. The partition-timeout path in ``Network.transfer`` charged the
   clock and raised, but nothing counted the event anywhere.
"""

import pytest

from repro.common import ConnectionFailedError
from repro.common.errors import AuthenticationError
from repro.core import GridFederation
from repro.core.replicas import ReplicaSelector
from repro.engine import Database
from repro.net import costs
from repro.net.network import WAN


def make_events_db(name, vendor="mysql", n=10):
    db = Database(name, vendor)
    db.execute("CREATE TABLE EVT (EVENT_ID INT PRIMARY KEY, ENERGY DOUBLE)")
    for i in range(n):
        db.execute(f"INSERT INTO EVT VALUES ({i}, {i * 1.0})")
    return db


@pytest.fixture
def replicated():
    """'events' on two database hosts behind one server."""
    fed = GridFederation()
    server = fed.create_server("jc1", "pc1")
    fed.attach_database(
        server, make_events_db("near_mart"),
        db_host="pcnear", logical_names={"EVT": "events"},
    )
    fed.attach_database(
        server, make_events_db("far_mart", vendor="sqlite"),
        db_host="faraway.cern.ch", logical_names={"EVT": "events"},
    )
    fed.network.set_link("pc1", "faraway.cern.ch", WAN)
    return fed, server


class TestDiscoveryExceptionNarrowed:
    def test_programming_error_in_discovery_propagates(self):
        """Bug 1: a RuntimeError in the RLS path must not be swallowed."""
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")
        fed.attach_database(
            server, make_events_db("only_mart"), logical_names={"EVT": "events"}
        )
        fed.directory.unregister(server.service.dictionary.url_for("only_mart"))

        def broken_lookup(logical_table, deadline_at_ms=None):
            raise RuntimeError("bug in the RLS client")

        server.service.rls.lookup = broken_lookup
        with pytest.raises(RuntimeError, match="bug in the RLS client"):
            server.service.execute("SELECT COUNT(*) FROM events")

    def test_exhausted_failover_chains_the_primary_error(self, replicated):
        """The terminal error names its cause instead of hiding it."""
        fed, server = replicated
        for name in ("near_mart", "far_mart"):
            fed.directory.unregister(server.service.dictionary.url_for(name))
        with pytest.raises(ConnectionFailedError) as info:
            server.service.execute("SELECT COUNT(*) FROM events")
        assert isinstance(info.value.__cause__, ConnectionFailedError)
        assert info.value.__cause__ is not info.value


class TestSessionCacheCredentials:
    @pytest.fixture
    def fed_server_client(self):
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1")
        fed.attach_database(
            server, make_events_db("mart"), logical_names={"EVT": "events"}
        )
        client = fed.client("laptop", user="grid", password="grid")
        return fed, server, client

    def test_wrong_password_cannot_ride_a_cached_session(self, fed_server_client):
        """Bug 3a: same user + wrong password returned the old session."""
        _fed, server, client = fed_server_client
        client.connect(server.server)
        with pytest.raises(AuthenticationError):
            client.connect(server.server, password="stolen-guess")

    def test_server_restart_reauthenticates_transparently(self, fed_server_client):
        """Bug 3b: a dead session id is dropped and the call replayed."""
        _fed, server, client = fed_server_client
        assert client.call(server.server, "dataaccess.ping") == "pong"
        server.server._sessions.clear()  # the server restarts
        assert client.call(server.server, "dataaccess.ping") == "pong"

    def test_live_session_acl_fault_still_raises(self, fed_server_client):
        """The re-auth retry must not eat genuine authorization faults."""
        fed, server, client = fed_server_client
        server.server.add_account("alice", "pw", groups=("users",))
        alice = fed.client("desk", user="alice", password="pw")
        with pytest.raises(AuthenticationError, match="not permitted"):
            # plugin is admin-only; alice's session is alive, so the
            # fault is a real ACL denial, not a stale session
            alice.call(server.server, "dataaccess.plugin", "<x/>", "u", "d")
        assert "jc1" in alice._sessions  # the live session survives


class TestReplicaSelectorReachability:
    def test_partitioned_host_is_not_available(self, replicated):
        """Bug 4: directory registration is not liveness."""
        fed, server = replicated
        selector = ReplicaSelector(fed.network, fed.directory, "pc1")
        assert (
            selector.choose(server.service.dictionary, "events").database_name
            == "near_mart"
        )
        fed.network.fail_host("pcnear")
        choice = selector.choose(server.service.dictionary, "events")
        assert choice.database_name == "far_mart"

    def test_selection_routes_around_dead_host_without_timeout(self):
        fed = GridFederation()
        server = fed.create_server("jc1", "pc1", replica_selection=True)
        fed.attach_database(
            server, make_events_db("near_mart"),
            db_host="pcnear", logical_names={"EVT": "events"},
        )
        fed.attach_database(
            server, make_events_db("far_mart", vendor="sqlite"),
            db_host="faraway.cern.ch", logical_names={"EVT": "events"},
        )
        fed.network.set_link("pc1", "faraway.cern.ch", WAN)
        fed.network.fail_host("pcnear")
        t0 = fed.clock.now_ms
        answer = server.service.execute("SELECT COUNT(*) FROM events")
        assert answer.rows == [(10,)]
        assert fed.clock.now_ms - t0 < costs.PARTITION_TIMEOUT_MS

    def test_all_replicas_dead_leaves_table_unpinned(self, replicated):
        """Planning must not raise; failover/partial handles dead subs."""
        fed, server = replicated
        fed.network.fail_host("pcnear")
        fed.network.fail_host("faraway.cern.ch")
        selector = ReplicaSelector(fed.network, fed.directory, "pc1")
        assert selector.preferences(server.service.dictionary, ["events"]) == {}


class TestPartitionTimeoutAccounting:
    def test_failed_transfer_is_counted_and_observed(self, replicated):
        """Bug 5: the timeout path now feeds counters and observers."""
        fed, server = replicated
        seen = []
        fed.network.add_failure_observer(
            lambda src, dst, nbytes, ms: seen.append((src, dst, nbytes, ms))
        )
        fed.network.fail_host("pcnear")
        fed.network.fail_host("faraway.cern.ch")
        with pytest.raises(ConnectionFailedError):
            server.service.execute("SELECT COUNT(*) FROM events")
        assert fed.network.partition_timeouts >= 1
        assert seen and seen[0][3] == costs.PARTITION_TIMEOUT_MS
        assert (
            server.service.metrics.counter("net.partition_timeouts").value
            == fed.network.partition_timeouts
        )
