"""GridFederation: wire a whole testbed together.

This is the top-level convenience the examples and benchmarks use: one
object owning the virtual clock, the network fabric, the driver
directory, the central RLS, any number of JClarens servers (each with a
data access service), the databases attached to them, and client
proxies. It reproduces the paper's deployment shape: a tiered topology
of hosts, databases registered per server, table locations published to
the RLS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clarens.client import ClarensClient
from repro.clarens.server import ClarensServer
from repro.core.service import DataAccessService, QueryAnswer
from repro.dialects import get_dialect
from repro.driver.directory import Directory
from repro.engine.database import Database
from repro.net.network import Network
from repro.net.simclock import SimClock
from repro.rls.client import RLSClient
from repro.rls.server import RLSServer

#: the host the central Replica Location Service runs on
RLS_HOST = "rls.cern.ch"


@dataclass
class ServerHandle:
    """One JClarens instance plus its data access service."""

    server: ClarensServer
    service: DataAccessService

    @property
    def name(self) -> str:
        return self.server.name

    @property
    def host(self) -> str:
        return self.server.host


@dataclass
class QueryOutcome:
    """Answer + the measured simulated response time."""

    answer: QueryAnswer
    response_ms: float


class GridFederation:
    """A complete simulated deployment of the paper's middleware."""

    def __init__(self):
        self.clock = SimClock()
        self.network = Network()
        self.directory = Directory()
        self.network.add_host(RLS_HOST, tier=0)
        self.rls_server = RLSServer(RLS_HOST, self.clock)
        self._servers: dict[str, ServerHandle] = {}  # keyed by service URL
        self._servers_by_name: dict[str, ServerHandle] = {}
        self._clients: dict[str, ClarensClient] = {}
        #: shared per-database epoch registry, created lazily by the
        #: first ``create_server(cache=True)`` — every caching server in
        #: the federation sees the same epochs, so an ETL refresh on one
        #: server invalidates cached sub-results everywhere
        self.epochs = None

    # -- topology -----------------------------------------------------------------

    def add_host(self, name: str, tier: int = 2) -> None:
        if not self.network.has_host(name):
            self.network.add_host(name, tier)

    def create_server(
        self,
        name: str,
        host: str,
        force_jdbc: bool = False,
        replica_selection: bool = False,
        schema_poll_interval_ms: float | None = None,
        jdbc_pooling: bool = False,
        observe: bool = False,
        cache: bool = False,
        resilience=False,
        slos=None,
    ) -> ServerHandle:
        """Start a JClarens server with a data access service on ``host``.

        With ``observe=True`` the service traces queries and registers
        its R-GMA-style monitor tables (``monitor_spans`` etc.) as an
        ordinary federated database, so telemetry is queryable with
        plain SQL — locally or from any peer via the RLS.

        With ``cache=True`` the service gets the multi-level query cache
        (:mod:`repro.cache`), wired to the federation-wide epoch
        registry so invalidation events propagate across servers.

        With ``resilience=True`` (or a
        :class:`~repro.resilience.ResilienceConfig`) the service gets
        retry/backoff, per-backend circuit breakers and graceful
        partial answers (:mod:`repro.resilience`).

        ``slos`` (a list of :class:`repro.obs.slo.SLO`, observing
        servers only) replaces the default latency/error objectives
        driving burn-rate alerts and ``dataaccess.health``.
        """
        self.add_host(host)
        if cache and self.epochs is None:
            from repro.cache import EpochRegistry

            self.epochs = EpochRegistry()
        server = ClarensServer(name, host, self.network, self.clock)
        rls_client = RLSClient(host, self.network, self.clock, self.rls_server)
        service = DataAccessService(
            server,
            self.directory,
            rls_client=rls_client,
            server_resolver=self._resolve_server,
            force_jdbc=force_jdbc,
            replica_selection=replica_selection,
            schema_poll_interval_ms=schema_poll_interval_ms,
            jdbc_pooling=jdbc_pooling,
            observe=observe,
            cache=cache,
            epochs=self.epochs,
            resilience=resilience,
            slos=slos,
        )
        server.register_service(service)
        # server-side histogramming rides alongside the data access service
        from repro.analysis.histservice import HistogramService

        server.register_service(HistogramService(service))
        # plugging databases into a server is administrative (§4.10)
        server.set_acl("dataaccess.plugin", ("admin",))
        handle = ServerHandle(server, service)
        self._servers[service.service_url] = handle
        self._servers_by_name[name] = handle
        if service.monitor is not None:
            # the monitor database is just another federated database:
            # published to the RLS, so remote peers can query it too
            self.attach_database(handle, service.monitor, db_host=host)
        return handle

    def _resolve_server(self, service_url: str) -> ClarensServer | None:
        handle = self._servers.get(service_url)
        return handle.server if handle else None

    def servers(self) -> list[ServerHandle]:
        return [self._servers_by_name[n] for n in sorted(self._servers_by_name)]

    # -- databases ------------------------------------------------------------------

    def attach_database(
        self,
        handle: ServerHandle,
        database: Database,
        db_host: str | None = None,
        logical_names: dict[str, str] | None = None,
    ) -> str:
        """Run ``database`` on ``db_host`` and register it with ``handle``.

        Returns the connection URL. The vendor comes from
        ``database.vendor``; the URL is built with that dialect's
        grammar. The database's tables are published to the RLS.
        """
        db_host = db_host or handle.host
        self.add_host(db_host)
        dialect = get_dialect(database.vendor)
        url = dialect.make_url(db_host, None, database.name)
        self.directory.register(url, database, host_name=db_host)
        handle.service.register_database(url, logical_names)
        return url

    # -- clients ---------------------------------------------------------------------

    def client(
        self, host: str, user: str = "grid", password: str = "grid"
    ) -> ClarensClient:
        self.add_host(host, tier=3)
        key = f"{host}|{user}"
        cached = self._clients.get(key)
        if cached is None:
            cached = ClarensClient(host, self.network, self.clock, user, password)
            self._clients[key] = cached
        return cached

    # -- querying ---------------------------------------------------------------------

    def query(
        self,
        client: ClarensClient,
        handle: ServerHandle,
        sql: str,
        allow_partial: bool = False,
    ) -> QueryOutcome:
        """Client-side query through the web-service interface, timed.

        The measured interval matches the paper's §5.2 "response time":
        from the client sending the request to the client holding the
        decoded rows (session establishment excluded — the prototype
        measured warm servers). ``allow_partial`` asks the server for a
        flagged partial answer instead of a fault when backends die.
        """
        client.connect(handle.server)  # warm the session before timing
        start = self.clock.now_ms
        if allow_partial:
            response = client.call(
                handle.server, "dataaccess.query", sql, [], False, None, True,
            )
        else:
            response = client.call(handle.server, "dataaccess.query", sql, [])
        elapsed = self.clock.now_ms - start
        return QueryOutcome(answer=QueryAnswer.from_wire(response), response_ms=elapsed)
