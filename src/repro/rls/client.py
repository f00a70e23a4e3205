"""RLS client: pays the wire to the central server for every operation."""

from __future__ import annotations

from repro.clarens.codec import payload_bytes
from repro.net.network import Network
from repro.net.simclock import SimClock
from repro.rls.server import RLSServer


class RLSClient:
    """Talks to the central RLS server from one grid host.

    The owning data access service may attach a ``metrics`` registry;
    lookups then feed hit/miss counters. It defaults to off at class
    level, so a bare client stays allocation-free. Spans and
    retry/breaker protection are the service's sub-query pipeline's
    (see ``DataAccessService._discover_remote``).
    """

    metrics = None

    def __init__(self, host: str, network: Network, clock: SimClock, server: RLSServer):
        self.host = host
        self.network = network
        self.clock = clock
        self.server = server

    def _count(self, name: str, n: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    def publish(self, logical_table: str, server_url: str) -> None:
        request = payload_bytes("rls.publish", [logical_table, server_url])
        self.network.transfer(self.host, self.server.host, request, self.clock)
        self.server.publish(logical_table, server_url)
        ack = payload_bytes("rls.publish", True)
        self.network.transfer(self.server.host, self.host, ack, self.clock)
        self._count("rls.publishes")

    def publish_many(self, tables: list[str], server_url: str) -> None:
        """Bulk publication used at service startup (one message)."""
        request = payload_bytes("rls.publish_many", [tables, server_url])
        self.network.transfer(self.host, self.server.host, request, self.clock)
        for table in tables:
            self.server.publish(table, server_url)
        ack = payload_bytes("rls.publish_many", True)
        self.network.transfer(self.server.host, self.host, ack, self.clock)
        self._count("rls.publishes", len(tables))

    def lookup(self, logical_table: str) -> list[str]:
        """Replica server URLs for ``logical_table``: one wire round-trip."""
        request = payload_bytes("rls.lookup", logical_table)
        self.network.transfer(self.host, self.server.host, request, self.clock)
        urls = self.server.lookup(logical_table)
        response = payload_bytes("rls.lookup", urls)
        self.network.transfer(self.server.host, self.host, response, self.clock)
        self._count("rls.lookups")
        self._count("rls.hits" if urls else "rls.misses")
        return urls
