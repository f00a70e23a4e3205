"""The Data Access Service — the heart of the middleware (§4.5).

One instance lives inside each JClarens server. It owns the local data
dictionary (built from XSpecs at registration time), the POOL-RAL
handle cache, the schema tracker and the routing policy. Incoming
queries are decomposed; sub-queries for locally registered databases
run through POOL-RAL or JDBC; sub-queries for tables registered
elsewhere are resolved through the central RLS and forwarded to the
remote JClarens server, whose results come back over the wire. Remote
servers work concurrently — distributing load is the whole point of
publishing table locations to the RLS (§4.8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clarens.client import ClarensClient
from repro.clarens.server import ClarensServer, ClarensService
from repro.common.errors import (
    ClarensFault,
    ConnectionFailedError,
    FederationError,
    TableNotRegisteredError,
)
from repro.common.types import SQLType
from repro.cache import normalize_sql
from repro.core.pipeline import QueryContext, SubQueryPipeline
from repro.core.router import SubQueryRouter
from repro.driver.directory import Directory
from repro.metadata.dictionary import DataDictionary
from repro.metadata.tracker import SchemaTracker
from repro.metadata.xspec import LowerXSpec
from repro.net import costs
from repro.net.simclock import SimClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import QueryRecord
from repro.poolral.ral import PoolRAL
from repro.rls.client import RLSClient
from repro.sql import ast
from repro.sql.parser import parse_select
from repro.unity.decompose import SubQuery, decompose
from repro.unity.driver import integrate_plan


@dataclass
class QueryAnswer:
    """A fully integrated answer plus provenance for tests/benches."""

    columns: list[str]
    types: list[SQLType]
    rows: list[tuple]
    distributed: bool
    databases: tuple[str, ...]
    servers_accessed: int
    tables_accessed: int
    routes: list[str] = field(default_factory=list)
    #: per-sub-query provenance (timings, replica host) — see SubQueryTrace
    traces: list = field(default_factory=list)
    #: True when an ``allow_partial`` query lost at least one sub-query
    #: branch — the rows are an under-approximation, never silently so
    partial: bool = False
    #: per-failed-sub-query provenance (see resilience.SubQueryFailure)
    failures: list = field(default_factory=list)
    #: per-operator cost breakdown (obs.profiler.QueryProfile) when the
    #: serving service observes; None otherwise
    profile: object = None

    @property
    def row_count(self) -> int:
        """Number of result rows."""
        return len(self.rows)

    def to_vector(self) -> list[list]:
        """The rows as a plain 2-D list (the paper's result shape)."""
        return [list(r) for r in self.rows]

    def column_index(self, name: str) -> int:
        """Index of a result column by (case-insensitive) name."""
        lowered = name.lower()
        for i, c in enumerate(self.columns):
            if c.lower() == lowered:
                return i
        raise KeyError(name)


class DataAccessService(ClarensService):
    """The Clarens-hosted data access layer of one JClarens instance."""

    service_name = "dataaccess"
    exposed = (
        "query", "describe", "tables", "ping", "plugin", "explain", "stats",
        "lint", "trace", "metrics", "profile", "health",
    )

    def __init__(
        self,
        server: ClarensServer,
        directory: Directory,
        rls_client: RLSClient | None = None,
        server_resolver=None,
        force_jdbc: bool = False,
        replica_selection: bool = False,
        schema_poll_interval_ms: float | None = None,
        jdbc_pooling: bool = False,
        preflight: bool = False,
        observe: bool = False,
        cache: bool = False,
        epochs=None,
        resilience=False,
        slos=None,
    ):
        self.preflight = preflight
        self.server_ = server  # 'server' attr is set by register_service too
        #: the server's virtual clock (a fresh one for a clock-less server)
        self.clock = server.clock or SimClock()
        self.directory = directory
        self.rls = rls_client
        self.server_resolver = server_resolver
        self.dictionary = DataDictionary()
        self.ral = PoolRAL(directory, self.clock)
        self.tracker = SchemaTracker()
        self.tracker.subscribe(self._on_schema_change)
        #: single source of truth for operational counters (always on —
        #: stats() is a view over it); callable, so it doubles as the
        #: ``dataaccess.metrics`` wire method.
        self.metrics = MetricsRegistry()
        jdbc_pool = None
        if jdbc_pooling:
            from repro.driver.pool import ConnectionPool

            jdbc_pool = ConnectionPool(directory, clock=self.clock)
        self.router = SubQueryRouter(
            ral=self.ral,
            directory=directory,
            clock=self.clock,
            network=server.network,
            host=server.host,
            force_jdbc=force_jdbc,
            remote_fetch=self._remote_fetch,
            jdbc_pool=jdbc_pool,
            metrics=self.metrics,
        )
        self._peer_client = ClarensClient(server.host, server.network, self.clock)
        self._service_url = f"clarens://{server.host}/{server.name}"
        # §4.9's "after a fixed interval of time, a thread is run": in
        # virtual time the poll fires lazily once the interval elapsed.
        self.schema_poll_interval_ms = schema_poll_interval_ms
        self._last_schema_poll_ms = 0.0
        self.replica_selector = None
        if replica_selection:
            from repro.core.replicas import ReplicaSelector

            self.replica_selector = ReplicaSelector(
                server.network, directory, server.host
            )
        # The pipeline builds the opt-in layers that are switched on (span
        # tracing + profiling, caching, retry + breakers); the rest of the
        # obs layer and the cache's service-side hooks are wired here.
        self.pipeline = SubQueryPipeline(
            self.router, server.name, observe=observe, cache=cache, epochs=epochs,
            resilience=resilience, failover=self._failover,
        )
        self.tracer = self.pipeline.tracer
        self.profiler = self.pipeline.profiler
        self.cache = self.pipeline.cache
        self.resilience = self.pipeline.resilience
        self.monitor = self.archiver = self.slo = None
        if cache:
            # level 3 rides inside the peer client, where forwarded
            # sub-queries pay the wire
            self._peer_client.answer_cache = self.cache.remote
            # the §4.9 tracker is the schema-side invalidation source
            self.tracker.epochs = self.cache.epochs
        if observe:
            from repro.obs.archive import MetricsArchiver
            from repro.obs.monitor import MonitorDatabase
            from repro.obs.slo import SLOEngine

            self.archiver = MetricsArchiver(self.metrics, self.clock)
            self.slo = SLOEngine(
                self.archiver,
                self.clock,
                slos=slos,
                resilience=self.resilience,
                cache=self.cache,
            )
            self.monitor = MonitorDatabase(
                f"monitor_{server.name}",
                self.tracer,
                self.metrics,
                clock=self.clock,
                profiler=self.profiler,
                archiver=self.archiver,
                slo=self.slo,
                cache=self.cache,
                resilience=self.resilience,
            )
            server.network.add_observer(self._on_transfer)
        # failed transfers must be visible in dataaccess.metrics even
        # without tracing — the partition-timeout path counts here
        server.network.add_failure_observer(self._on_transfer_failed)
        if rls_client is not None:
            rls_client.metrics = self.metrics

    # ------------------------------------------------------------------
    # administration (local only — not web-exposed)
    # ------------------------------------------------------------------

    @property
    def service_url(self) -> str:
        """This service's clarens:// address (as published to the RLS)."""
        return self._service_url

    @property
    def queries_served(self) -> int:
        """Successfully answered queries (view over the metrics registry)."""
        return int(self.metrics.counter("queries").value)

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------

    def _span(self, stage: str, **attrs):
        """A tracer span, or the shared no-op when tracing is off."""
        return self.pipeline.span(stage, **attrs)

    def _observe_tick(self) -> None:
        """Archive a metrics snapshot when the cadence interval elapsed.

        The virtual clock has no background threads — like the §4.9
        schema poll, the archiver's cadence fires lazily from the query
        path. Each snapshot triggers one SLO evaluation pass so burn
        alerts track the archive, not the instant.
        """
        if self.archiver is not None and self.archiver.maybe_snapshot():
            self.slo.evaluate()

    def _on_transfer(self, src: str, dst: str, nbytes: int, ms: float) -> None:
        """Network observer (observing services): link traffic of this host."""
        host = self.server_.host
        if host != src and host != dst:
            return
        self.metrics.counter(f"net.bytes.{src}->{dst}").inc(nbytes)
        self.metrics.counter("net.messages").inc()
        end = self.clock.now_ms
        self.tracer.record("transfer", end - ms, end, src=src, dst=dst, bytes=int(nbytes))

    def _on_transfer_failed(self, src: str, dst: str, nbytes: int, ms: float) -> None:
        """Network failure observer: account partition timeouts."""
        host = self.server_.host
        if host != src and host != dst:
            return
        self.metrics.counter("net.partition_timeouts").inc()
        if self.tracer is not None:
            end = self.clock.now_ms
            self.tracer.record(
                "transfer_failed", end - ms, end, src=src, dst=dst, bytes=int(nbytes)
            )

    def _dictionary_changed(self, dropped: str = "") -> None:
        """Flush cached plans (and a dropped database's sub-results)."""
        if self.cache is None:
            return
        self.cache.bump_dictionary()
        if dropped:
            self.cache.epochs.bump(dropped)

    def _publish(self, tables) -> None:
        if self.rls is not None:
            self.rls.publish_many(tables, self._service_url)

    def _unpublish(self, tables) -> None:
        if self.rls is not None:
            for table in tables:
                self.rls.server.unpublish(table, self._service_url)

    def register_database(
        self,
        url: str,
        logical_names: dict[str, str] | None = None,
        publish: bool = True,
    ) -> LowerXSpec:
        """Register a locally reachable database with this service.

        Generates the lower XSpec, adds it to the local dictionary,
        publishes the logical table names to the RLS, initializes a
        POOL-RAL handle when the vendor is supported, and starts schema
        tracking.
        """
        binding = self.directory.lookup(url)
        spec = self.tracker.watch(binding.database, logical_names)
        self.dictionary.add_database(spec, url)
        self._dictionary_changed()
        if self.ral.supports_url(url):
            self.ral.initialize(url, binding.user, binding.password)
        if publish:
            self._publish(spec.logical_table_names())
        return spec

    def unregister_database(self, database_name: str) -> None:
        """Remove a database: dictionary, tracker, RLS and POOL handle."""
        spec = self.dictionary.spec_for(database_name)
        url = self.dictionary.url_for(database_name)
        self._unpublish(spec.logical_table_names())
        self.dictionary.remove_database(database_name)
        self.tracker.unwatch(database_name)
        self.ral.release(url)
        self._dictionary_changed(dropped=database_name)

    def _on_schema_change(self, database_name: str, new_spec: LowerXSpec) -> None:
        """Tracker callback: refresh dictionary and RLS publications.

        The tracker itself bumps the database's cache epoch (the §4.9
        md5 diff is the invalidation event); here only the plan cache
        needs flushing, because the refreshed dictionary may decompose
        queries differently.
        """
        self._dictionary_changed()
        url = self.dictionary.url_for(database_name)
        old_tables = set(self.dictionary.spec_for(database_name).logical_table_names())
        self.dictionary.add_database(new_spec, url)
        new_tables = set(new_spec.logical_table_names())
        self._unpublish(old_tables - new_tables)
        added = sorted(new_tables - old_tables)
        if added:
            self._publish(added)

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------

    def _run_preflight(self, select: ast.Select) -> bool:
        """Static pre-flight lint: reject before any sub-query ships.

        Returns True when the check ran. A query touching a table this
        server does not yet know is deferred (returns False) — the
        caller re-runs the check once RLS discovery has registered the
        remote tables, still before any sub-query data moves.
        """
        if any(
            not self.dictionary.has_table(ref.name)
            for ref in select.referenced_tables()
        ):
            return False
        from repro.common.errors import PreflightError
        from repro.lint import DictionarySchema, lint_select

        report = lint_select(select, DictionarySchema(self.dictionary))
        if not report.ok:
            self.metrics.counter("preflight_rejections").inc()
            raise PreflightError(report.errors)
        return True

    def execute(
        self,
        sql: str | ast.Select,
        params: tuple = (),
        no_forward: bool = False,
        allow_partial: bool = False,
        trace_parent: tuple | None = None,
    ) -> QueryAnswer:
        """Execute a logical-name query; the local (non-RPC) entry point.

        With ``allow_partial=True``, a sub-query whose every replica and
        retry is exhausted degrades to zero rows instead of failing the
        whole query: the answer comes back ``partial=True`` with one
        :class:`~repro.resilience.SubQueryFailure` per lost branch.
        ``trace_parent`` (``(trace_id, parent_span_id)``) makes the query's
        root span join a forwarding server's trace.
        """
        self._maybe_poll_schemas()
        ctx = self.pipeline.context(params, allow_partial, trace_parent)
        plan_key = normalize_sql(sql)
        cached_plan = self.pipeline.plans.get_plan(plan_key)
        if cached_plan is not None:
            select = cached_plan.select
        else:
            select = parse_select(sql) if isinstance(sql, str) else sql
        start_ms = self.clock.now_ms
        self._observe_tick()
        with self._span("query", parent=ctx.trace_parent) as root:
            try:
                answer = self._execute_query(
                    select, ctx, no_forward, plan_key, cached_plan
                )
            except Exception as exc:
                self.metrics.counter("query_errors").inc()
                self._record_query(root, select, start_ms, f"error: {type(exc).__name__}")
                self._observe_tick()
                raise
        self._account_query(answer, start_ms)
        self._record_query(
            root, select, start_ms, "partial" if answer.partial else "ok", answer
        )
        self._observe_tick()
        return answer

    def _account_query(self, answer: QueryAnswer, start_ms: float) -> None:
        """Fold one successful query into the metrics registry."""
        self.metrics.counter("queries").inc()
        if answer.partial:
            self.metrics.counter("partial_answers").inc()
        if answer.distributed:
            self.metrics.counter("queries_distributed").inc()
        self.metrics.counter("rows_returned").inc(answer.row_count)
        self.metrics.histogram("query_ms").observe(self.clock.now_ms - start_ms)

    def _record_query(self, root, select, start_ms, status, answer=None) -> None:
        """Observing services: label the root span, add the query's
        ``monitor_queries`` row, and fold a locally rooted query's span
        tree (imported remote spans included) into its cost profile."""
        if self.tracer is None:
            return
        ok = answer is not None
        sql = select.unparse()
        root.set("sql", sql)
        if ok and answer.partial:
            root.set("partial", True).set("failed_subqueries", len(answer.failures))
        duration = self.clock.now_ms - start_ms
        self.tracer.queries.append(
            QueryRecord(
                trace_id=root.trace_id,
                server=self.server_.name,
                sql=sql,
                distributed=ok and answer.distributed,
                row_count=answer.row_count if ok else 0,
                duration_ms=duration,
                servers=answer.servers_accessed if ok else 0,
                status=status,
                end_ms=start_ms + duration,
            )
        )
        if ok and root.parent_id is None:
            answer.profile = self.profiler.record(
                root, self.tracer.trace_spans(root), shape=sql
            )

    def _plan(self, select: ast.Select, ctx: QueryContext, no_forward: bool):
        """Preflight, RLS discovery and decomposition: (plan, remote servers)."""
        preflighted = True
        if self.preflight:
            with self._span("preflight"):
                preflighted = self._run_preflight(select)

        remote_servers = set()
        with self._span("decompose") as decompose_span:
            self.clock.advance_ms(costs.DECOMPOSE_MS)
            for ref in select.referenced_tables():
                if not self.dictionary.has_table(ref.name):
                    if no_forward:
                        raise TableNotRegisteredError(ref.name)
                    remote_servers.add(self._discover_remote(ref.name, ctx))
                else:
                    loc = self.dictionary.locate(ref.name)
                    if loc.is_remote:
                        remote_servers.add(loc.remote_server)
            if not preflighted:
                # discovery has registered the remote tables; check now,
                # before any sub-query ships
                with self._span("preflight"):
                    self._run_preflight(select)

            prefer = None
            if self.replica_selector is not None:
                prefer = self.replica_selector.preferences(
                    self.dictionary,
                    [ref.name for ref in select.referenced_tables()],
                )
            plan = decompose(select, self.dictionary, prefer_databases=prefer)
            decompose_span.set("subqueries", len(plan.subqueries))
            decompose_span.set("distributed", plan.is_distributed)
        return plan, remote_servers

    def _execute_query(
        self,
        select: ast.Select,
        ctx: QueryContext,
        no_forward: bool,
        plan_key=None,
        cached_plan=None,
    ) -> QueryAnswer:
        """The query pipeline: preflight → decompose → fetch → merge.

        On a plan-cache hit (``cached_plan``), preflight, discovery and
        decomposition are skipped entirely — the plan was validated when
        it was cached, and the participants' XSpec metadata travels with
        it (so the JDBC route skips their per-query metadata parse).
        """
        if cached_plan is not None:
            plan = cached_plan.plan
            remote_servers = set(cached_plan.remote_servers)
            ctx.parsed = frozenset(plan.databases)
        else:
            plan, remote_servers = self._plan(select, ctx, no_forward)
            # cached after discovery so the dictionary bumps discovery
            # caused have already flushed older generations
            self.pipeline.plans.put_plan(plan_key, select, plan, remote_servers)

        # Group sub-queries: each remote server's batch runs on that
        # server, and each distinct *local* database is its own branch
        # too — distinct backends serve their sub-queries concurrently,
        # exactly like the remote peers do (§4.8's point about
        # distributing load).
        groups: dict[tuple, list[SubQuery]] = {}
        for sub in plan.subqueries:
            loc = sub.location
            group_key = (
                ("remote", loc.remote_server)
                if loc.is_remote
                else ("local", loc.database_name)
            )
            groups.setdefault(group_key, []).append(sub)

        fetched: dict[str, tuple] = {}

        def run_group(subs: list[SubQuery]):
            def _run():
                for sub in subs:
                    fetched[sub.binding] = self._run_branch_subquery(sub, ctx)

            return _run

        self.clock.run_parallel([run_group(subs) for subs in groups.values()])
        with self._span("merge") as merge_span:
            result = integrate_plan(plan, fetched, ctx, self.clock)
            merge_span.set("rows", len(result.rows))
        return QueryAnswer(
            columns=result.columns,
            types=result.types,
            rows=result.rows,
            distributed=plan.is_distributed,
            databases=plan.databases,
            servers_accessed=1 + len(remote_servers),
            tables_accessed=len(plan.original.referenced_tables()),
            routes=[t.via for t in result.traces],
            traces=list(result.traces),
            partial=bool(ctx.failures),
            failures=ctx.failures,
        )

    def _run_branch_subquery(self, sub: SubQuery, ctx: QueryContext):
        """One sub-query of a branch; a lost one degrades when allowed."""
        try:
            return self.pipeline.run(sub, ctx)
        except ConnectionFailedError as exc:
            if not ctx.allow_partial:
                raise
            # graceful degradation: the branch contributes zero rows,
            # flagged with failure provenance
            from repro.resilience import SubQueryFailure

            ctx.failures.append(SubQueryFailure.from_exception(sub, exc))
            return self._empty_sub_result(sub, ctx.params)

    def _maybe_poll_schemas(self) -> None:
        """Fire the periodic schema poll when its interval has elapsed."""
        if self.schema_poll_interval_ms is None:
            return
        if self.clock.now_ms - self._last_schema_poll_ms >= self.schema_poll_interval_ms:
            self._last_schema_poll_ms = self.clock.now_ms
            self.tracker.poll()

    def _empty_sub_result(self, sub: SubQuery, params: tuple):
        """Zero-row stand-in for a sub-query whose backend is lost.

        Shaped by running the physical sub-select against an empty
        scratch copy of the target table, so columns and types match
        what a live backend would have returned.
        """
        from repro.engine.database import Database
        from repro.engine.storage import Column
        from repro.unity.driver import _logicalize_columns

        table = sub.location.table
        scratch = Database("__degraded__", "generic")
        scratch.catalog.create_table(
            table.name,
            [Column(name=c.name, type=c.logical_type) for c in table.columns],
        )
        result = scratch.execute_statement(sub.select, params)
        columns = _logicalize_columns(list(result.columns), sub)
        return columns, list(result.types), [], "failed"

    def _failover(self, run, sub: SubQuery, ctx: QueryContext):
        """Run one sub-query; on a dead database, fail over to a replica.

        The pipeline's failover stage: ``run`` is the guarded, traced
        inner chain. The alternate replica may use different physical
        naming, so the sub-query is re-planned from its logical form
        against a one-location dictionary for the alternate.
        """
        try:
            return run(sub, ctx)
        except ConnectionFailedError as primary_exc:
            self.metrics.counter("failovers").inc()
            failed = sub.location.database_name
            table = sub.location.logical_table

            def alternates():
                return [
                    loc
                    for loc in self.dictionary.locations(table)
                    if loc.database_name != failed
                ]

            candidates = alternates()
            if not candidates:
                # no local replica — maybe another JClarens server hosts
                # one. Only *expected* discovery failures are swallowed;
                # a programming error here must propagate, not be
                # silently replaced by the connection error.
                try:
                    self._discover_remote(table, ctx, exclude_own=True)
                except (FederationError, ClarensFault):
                    pass
                candidates = alternates()
            if not candidates or sub.logical_select is None:
                raise
            last_error: Exception | None = None
            for alternate in candidates:
                mini = DataDictionary()
                mini.add_database(
                    self.dictionary.spec_for(alternate.database_name),
                    alternate.url,
                    remote_server=alternate.remote_server,
                )
                replanned = decompose(sub.logical_select, mini)
                retry = replanned.subqueries[0]
                # keep the original binding so the integrator finds it;
                # the logical form travels too (remote alternates are
                # forwarded by logical SQL). No recursion: the retry runs
                # the inner chain, not this failover stage again.
                retry = SubQuery(
                    binding=sub.binding,
                    location=retry.location,
                    select=retry.select,
                    pushed_conjuncts=retry.pushed_conjuncts,
                    logical_select=sub.logical_select,
                )
                self.metrics.counter("failover_retries").inc()
                try:
                    return run(retry, ctx)
                except ConnectionFailedError as exc:
                    last_error = exc
            if last_error is not None:
                raise last_error from primary_exc
            raise ConnectionFailedError(
                f"no live replica for {sub.location.logical_table!r}"
            ) from primary_exc

    # ------------------------------------------------------------------
    # remote resolution and forwarding
    # ------------------------------------------------------------------

    def _resolve_peer(self, service_url: str) -> ClarensServer:
        if self.server_resolver is None:
            raise FederationError(
                "table lives on a remote server but no server_resolver is configured"
            )
        peer = self.server_resolver(service_url)
        if peer is None:
            raise FederationError(f"cannot resolve remote server {service_url!r}")
        return peer

    def _discover_remote(
        self, logical_table: str, ctx: QueryContext, exclude_own: bool = False
    ) -> str:
        """RLS lookup + remote describe; registers the remote location.

        The RLS may return several replica servers; dead or stale ones
        are skipped in order. ``exclude_own`` skips this server's own
        publications (used during replica failover).
        """
        if self.rls is None:
            raise TableNotRegisteredError(logical_table)
        with self._span("rls_lookup", table=logical_table):
            with self._span("rls_wire", table=logical_table) as wire:
                urls = self.pipeline.guard(
                    f"rls:{self.rls.server.host}",
                    lambda: self.rls.lookup(logical_table),
                    ctx,
                )
                wire.set("replicas", len(urls))
            if exclude_own:
                urls = [u for u in urls if u != self._service_url]
            last_error: Exception | None = None
            for service_url in urls:
                try:
                    peer = self._resolve_peer(service_url)
                    description = self.pipeline.guard(
                        f"peer:{service_url}",
                        lambda: self._peer_client.call(
                            peer, "dataaccess.describe", logical_table
                        ),
                        ctx,
                    )
                # a partitioned/dead peer (ConnectionFailedError) is as
                # skippable as a stale RLS entry: move on to the next
                # replica server instead of failing the lookup
                except (FederationError, ClarensFault, ConnectionFailedError) as exc:
                    last_error = exc
                    continue
                spec = LowerXSpec.from_xml(description["spec_xml"])
                self.dictionary.add_database(
                    spec, description["url"], remote_server=service_url
                )
                self._dictionary_changed()
                return service_url
        raise last_error if last_error else TableNotRegisteredError(logical_table)

    def _remote_fetch(self, sub: SubQuery, params: tuple):
        """Forward one sub-query to the remote server hosting its table.

        When tracing, the call carries ``{trace_id, parent_id}`` so the
        remote server's spans join this query's trace; they come back
        piggybacked on the response and are imported here.
        """
        self.metrics.counter("remote_fetches").inc()
        peer = self._resolve_peer(sub.location.remote_server)
        call_args = [sub.logical_sql, list(params), True]
        active = self.tracer.active if self.tracer is not None else None
        if active is not None:
            call_args.append(
                {"trace_id": active.trace_id, "parent_id": active.span_id}
            )
        response = self._peer_client.call(peer, "dataaccess.query", *call_args)
        if active is not None and response.get("spans"):
            self.tracer.import_spans(response["spans"])
        types = [_type_from_text(t) for t in response["types"]]
        rows = [tuple(r) for r in response["rows"]]
        return response["columns"], types, rows

    # ------------------------------------------------------------------
    # web-exposed methods (wire-safe values only)
    # ------------------------------------------------------------------

    def query(
        self,
        sql: str,
        params: list | None = None,
        no_forward: bool = False,
        trace_ctx: dict | None = None,
        allow_partial: bool = False,
    ):
        """Clarens method: run a query, return a struct of plain lists.

        A forwarding origin server may pass ``trace_ctx`` (trace id +
        parent span id); this server's spans then join that trace and
        travel back in the response's ``spans`` key. With
        ``allow_partial`` the response may carry ``partial=True`` plus a
        ``failures`` list instead of a fault when backends are lost.
        """
        joined = bool(trace_ctx) and self.tracer is not None
        mark = len(self.tracer.spans) if joined else 0
        answer = self.execute(
            sql, tuple(params or ()), bool(no_forward), bool(allow_partial),
            (trace_ctx["trace_id"], trace_ctx["parent_id"]) if joined else None,
        )
        out = {
            "columns": list(answer.columns),
            "types": [str(t) for t in answer.types],
            "rows": [list(r) for r in answer.rows],
            "distributed": answer.distributed,
            "servers": answer.servers_accessed,
            "tables": answer.tables_accessed,
            "routes": list(answer.routes),
        }
        if allow_partial:
            # only partial-tolerant callers pay the extra response bytes
            out["partial"] = answer.partial
            out["failures"] = [f.as_dict() for f in answer.failures]
        if joined:
            out["spans"] = [s.as_dict() for s in self.tracer.spans[mark:]]
        return out

    def describe(self, logical_table: str):
        """Clarens method: metadata for one locally registered table."""
        locations = [
            loc
            for loc in self.dictionary.locations(logical_table)
            if not loc.is_remote
        ]
        if not locations:
            raise ClarensFault(
                "dataaccess.describe",
                f"table {logical_table!r} is not registered with this server",
            )
        loc = locations[0]
        spec = self.dictionary.spec_for(loc.database_name)
        return {
            "database": loc.database_name,
            "vendor": loc.vendor,
            "url": loc.url,
            "spec_xml": spec.single_table_spec(logical_table).to_xml(),
        }

    def tables(self):
        """Clarens method: logical tables this server can serve locally."""
        return sorted(
            t
            for t in self.dictionary.logical_tables()
            if any(not loc.is_remote for loc in self.dictionary.locations(t))
        )

    def ping(self):
        """Clarens method: liveness probe."""
        return "pong"

    def stats(self):
        """Clarens method: operational counters for monitoring.

        Queries served, sub-query routing mix, POOL handle count,
        connection-pool hit rate (when pooling is on), schema-tracker
        activity, and per-method container statistics.
        """
        count = lambda name: int(self.metrics.counter(name).value)  # noqa: E731
        out = {
            "server": self.server_.name,
            "queries_served": self.queries_served,
            "routes": dict(self.router.route_counts),
            "failovers": count("failovers"),
            "failover_retries": count("failover_retries"),
            "remote_fetches": count("remote_fetches"),
            "preflight_rejections": count("preflight_rejections"),
            "rows_returned": count("rows_returned"),
            "pool_handles": self.ral.handle_count(),
            "tracker_polls": self.tracker.polls,
            "schema_changes": self.tracker.changes_detected,
            "databases": self.dictionary.databases(),
            "methods": {
                name: {
                    "calls": s.calls,
                    "rows_returned": s.rows_returned,
                    "busy_ms": round(s.busy_ms, 3),
                }
                for name, s in sorted(self.server_.method_stats.items())
            },
        }
        if self.router.jdbc_pool is not None:
            pool = self.router.jdbc_pool.stats
            out["jdbc_pool"] = {
                "hits": pool.hits,
                "misses": pool.misses,
                "discarded": pool.discarded,
                "hit_rate": round(pool.hit_rate, 4),
            }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        if self.resilience is not None:
            out["resilience"] = self.resilience.stats()
            out["partial_answers"] = count("partial_answers")
        return out

    def trace(self, trace_id: str = ""):
        """Clarens method: the finished spans of one trace, wire-safe.

        With no ``trace_id``, returns the most recent locally rooted
        trace. Returns ``[]`` when the server is not observing.
        """
        if self.tracer is None:
            return []
        tid = trace_id or self.tracer.last_trace_id
        if not tid:
            return []
        return [s.as_dict() for s in self.tracer.spans_for(tid)]

    def profile(self, trace_id: str = ""):
        """Clarens method: per-operator cost profile of one query.

        EXPLAIN ANALYZE for the federation: each stage of the traced
        query with calls, self-time and cumulative time (simulated ms),
        plus the folded-stack lines a flame-graph renderer eats
        directly. With no ``trace_id``, returns the most recent
        profiled query. Returns ``{}`` when the server is not
        observing (or the trace was not retained).
        """
        if self.profiler is None:
            return {}
        prof = self.profiler.get(trace_id or None)
        return prof.as_dict() if prof is not None else {}

    def health(self):
        """Clarens method: single RED-style verdict for this server.

        Combines SLO burn-rate alerts, circuit-breaker states and cache
        hit rates into one ``ok`` / ``degraded`` / ``critical`` answer
        — the question an operator's dashboard actually asks. Forces a
        fresh archive snapshot + SLO evaluation so the verdict reflects
        *now*, not the last cadence tick.
        """
        if self.slo is None:
            return {"observed": False, "verdict": "unobserved"}
        self.archiver.snapshot()
        self.slo.evaluate()
        return self.slo.health()

    def explain(self, sql: str):
        """Clarens method: the federated plan for ``sql``, not executed.

        Shows the decomposition (per-table sub-queries, pushdown), the
        predicted route of each sub-query (pool / jdbc / remote), and
        the integration step — the distributed counterpart of a local
        engine EXPLAIN.
        """
        select = parse_select(sql)
        ctx = self.pipeline.context()
        for ref in select.referenced_tables():
            if not self.dictionary.has_table(ref.name):
                self._discover_remote(ref.name, ctx)
        plan = decompose(select, self.dictionary)
        subqueries = []
        for sub in plan.subqueries:
            subqueries.append(
                {
                    "binding": sub.binding,
                    "database": sub.location.database_name,
                    "vendor": sub.location.vendor,
                    "route": self.router.route_of(sub),
                    "sql": sub.sql,
                    "pushed_predicates": [c.unparse() for c in sub.pushed_conjuncts],
                }
            )
        return {
            "kind": plan.kind,
            "distributed": plan.is_distributed,
            "databases": list(plan.databases),
            "subqueries": subqueries,
            "integration": (
                plan.integration.unparse() if plan.integration is not None else None
            ),
        }

    def lint(self, sql: str):
        """Clarens method: static diagnostics for ``sql``, not executed.

        Lets clients validate a query against this server's dictionary
        for free before paying for a distributed execution.
        """
        from repro.lint import DictionarySchema, lint_sql

        report = lint_sql(sql, DictionarySchema(self.dictionary))
        return [d.as_dict() for d in report]

    def plugin(self, spec_xml: str, url: str, driver: str):
        """Clarens method: plug in a database at runtime (§4.10).

        The caller supplies the XSpec document, the connection URL and
        the driver (vendor) name; the server parses the metadata,
        connects through the matching driver, and registers the tables.
        """
        spec = LowerXSpec.from_xml(spec_xml)
        if spec.vendor.lower() != driver.lower():
            raise ClarensFault(
                "dataaccess.plugin",
                f"spec is for vendor {spec.vendor!r} but driver {driver!r} given",
            )
        binding = self.directory.lookup(url)  # the database must be running
        self.dictionary.add_database(spec, url)
        self._dictionary_changed()
        # Keep the plugged-in spec's logical naming when tracking.
        logical_names = {t.name: t.logical_name for t in spec.tables}
        self.tracker.watch(binding.database, logical_names)
        if self.ral.supports_url(url):
            self.ral.initialize(url, binding.user, binding.password)
        self._publish(spec.logical_table_names())
        return spec.logical_table_names()


def _type_from_text(text: str) -> SQLType:
    from repro.metadata.xspec import parse_type_text

    return parse_type_text(text)
