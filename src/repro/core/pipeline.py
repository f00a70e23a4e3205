"""One query pipeline for the data access service and the Unity driver.

The paper's Data Access Service makes one decision per sub-query: run
it through POOL-RAL, through JDBC/Unity, or forward it to the remote
JClarens server hosting its table (§4.5), failing over to a replica
when its backend is dead (§4.8). :class:`SubQueryPipeline` is that path,
composed once at construction from the layers that are switched on,
which it also builds — the one place the lint pre-flight, the obs stack
(tracer, profiler, archiver, SLO engine, monitor database), the cache
manager and the resilience manager of a service or driver come from::

    cache -> failover -> breaker/retry -> span -> SubQueryRouter

A layer that is off is absent from the chain, so with cache, observe
and resilience off a sub-query runs straight through the router, as the
prototype did. Per-query state travels down the chain in a
:class:`QueryContext` instead of living on shared objects, and every
query of either front end runs inside the pipeline's query frame
(:meth:`SubQueryPipeline.serve`), which does its bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache import CacheManager, normalize_sql
from repro.common.errors import PreflightError
from repro.net import costs
from repro.obs.profiler import QueryProfiler
from repro.obs.trace import NOOP_SPAN, QueryRecord, Tracer
from repro.resilience import ResilienceConfig, ResilienceManager


@dataclass
class QueryContext:
    """The state of one query, passed to every stage of the pipeline."""

    params: tuple = ()
    #: degrade a lost sub-query to flagged zero rows instead of failing
    allow_partial: bool = False
    #: simulated instant after which no retry backoff sleep starts
    #: (None: only the attempt limit bounds retries)
    deadline_at_ms: float | None = None
    #: ``(trace_id, parent_span_id)`` of the server that forwarded this
    #: query: its root span joins that trace (None: a locally rooted query)
    trace_parent: tuple | None = None
    #: databases whose XSpec metadata this query has already parsed;
    #: the JDBC route charges UNITY_METADATA_PARSE_MS for any other one
    parsed: frozenset = frozenset()
    #: one SubQueryFailure per branch an ``allow_partial`` query lost
    failures: list = field(default_factory=list)
    #: binding -> (start_ms, end_ms, host, database, url) of the
    #: execution that actually served the sub-query
    provenance: dict = field(default_factory=dict)


def _no_span(stage: str, **attrs):
    return NOOP_SPAN


def _unguarded(key: str, fn, ctx: QueryContext):
    return fn()


class SubQueryPipeline:
    """Builds the switched-on layers, runs a sub-query through them, then
    routes it; frames each query of its front end.

    The layers share the router's clock and metrics registry. ``preflight``
    turns on the lint pre-flight (:meth:`preflight`); ``observe`` builds
    a tracer (its spans labelled ``name``), a profiler, a metrics
    archiver, an SLO engine (``slos`` replaces its default objectives)
    and the ``monitor_<name>`` database; ``cache`` a cache manager on the
    shared ``epochs``; ``resilience`` (True or a ``ResilienceConfig``) a
    resilience manager. An off layer is None. ``failover(run, sub, ctx)``
    (the service's replica walk) receives the guarded inner chain, so
    each replica attempt gets its own breaker, retries and span. Cache
    hits are labelled with the router's host, which serves them.
    """

    #: the layers this pipeline built (None: switched off)
    tracer = profiler = archiver = slo = monitor = cache = resilience = None
    #: span factory: the tracer's, or the shared no-op
    span = staticmethod(_no_span)
    #: ``guard(key, fn, ctx)``: fn() behind key's breaker and retries
    guard = staticmethod(_unguarded)
    #: ``repro.lint.preflight`` when pre-flight is on
    _lint = None

    def __init__(self, router, name=None, observe=False, cache=False, epochs=None,
                 resilience=False, failover=None, preflight=False, slos=None):
        clock = self.clock = router.clock
        self.metrics = router.metrics
        run = router
        if preflight:
            from repro.lint import preflight as lint_preflight

            self._lint = lint_preflight
        if observe:
            self.tracer = Tracer(clock, name)
            self.profiler = QueryProfiler(clock)
            self.span = self.tracer.span
            run = _traced(run, self.tracer, router)
        if resilience:
            config = resilience if isinstance(resilience, ResilienceConfig) else None
            self.resilience = ResilienceManager(clock, router.metrics, config, self.tracer)
            self.guard = _guard(self.resilience)
            run = _guarded(run, self.guard)
        if failover is not None:
            run = _failing_over(run, failover)
        if cache:
            self.cache = CacheManager(clock, router.metrics, epochs)
            run = _cached(run, self.cache, clock, self.span, router.host)
        if observe:  # the rest of the obs stack reads the layers built above
            from repro.obs.archive import MetricsArchiver
            from repro.obs.monitor import MonitorDatabase
            from repro.obs.slo import SLOEngine

            self.archiver = MetricsArchiver(router.metrics, clock)
            self.slo = SLOEngine(
                self.archiver,
                clock,
                slos=slos,
                resilience=self.resilience,
                cache=self.cache,
            )
            self.monitor = MonitorDatabase(
                f"monitor_{name}",
                self.tracer,
                router.metrics,
                clock=clock,
                profiler=self.profiler,
                archiver=self.archiver,
                slo=self.slo,
                cache=self.cache,
                resilience=self.resilience,
            )
        #: ``run(sub, ctx) -> (columns, types, rows, via)``
        self.run = run

    def context(
        self, params: tuple = (), allow_partial: bool = False, trace_parent=None
    ) -> QueryContext:
        """A fresh context; the retry deadline budget starts now."""
        deadline = None
        if self.resilience is not None:
            deadline = self.clock.now_ms + costs.RETRY_DEADLINE_MS
        return QueryContext(params, allow_partial, deadline, trace_parent)

    # -- the plan cache (level 1; misses throughout when cache is off) -----------

    def lookup(self, sql, parse, prefer_of):
        """``(plan-cache key, select, cached plan entry or None)`` of ``sql``:
        a hit carries its parsed select, a miss parses with ``parse``.
        ``prefer_of`` is :meth:`CacheManager.get_plan`'s preference check."""
        key = normalize_sql(sql)
        cached = self.cache.get_plan(key, prefer_of) if self.cache is not None else None
        if cached is not None:
            return key, cached.select, cached
        return key, parse(sql) if isinstance(sql, str) else sql, None

    def remember(self, key, select, plan, remote_servers=(), prefer_databases=None) -> None:
        """Cache a fresh plan under the key :meth:`lookup` returned."""
        if self.cache is not None:
            self.cache.put_plan(key, select, plan, remote_servers, prefer_databases)

    def preflight(self, select, dictionary, plan) -> None:
        """When pre-flight is on, lint ``select`` against ``plan`` (None:
        the planner refused it). Front ends call this after decomposing
        and raise the planner's refusal after it, so lint's comes first."""
        if self._lint is None:
            return
        with self.span("preflight"):
            try:
                self._lint(select, dictionary, plan)
            except PreflightError:
                self.metrics.counter("preflight_rejections").inc()
                raise

    # -- the query frame -------------------------------------------------------

    def serve(self, select, ctx: QueryContext, body):
        """Run ``body() -> QueryAnswer`` as one query of ``select``.

        The frame is every front end's per-query bookkeeping: the
        archiver tick before and after, the root ``query`` span (joining
        ``ctx.trace_parent``), the query counters and ``query_ms``
        histogram, and, when observing, the query's ``monitor_queries``
        record and a locally rooted query's cost profile. A failed query
        counts in ``query_errors`` and is recorded with its error.
        """
        start_ms = self.clock.now_ms
        self._tick()
        with self.span("query", parent=ctx.trace_parent) as root:
            try:
                answer = body()
            except Exception as exc:
                self.metrics.counter("query_errors").inc()
                self._record(root, select, start_ms, f"error: {type(exc).__name__}")
                self._tick()
                raise
        self.metrics.counter("queries").inc()
        if answer.partial:
            self.metrics.counter("partial_answers").inc()
        if answer.distributed:
            self.metrics.counter("queries_distributed").inc()
        self.metrics.counter("rows_returned").inc(answer.row_count)
        self.metrics.histogram("query_ms").observe(self.clock.now_ms - start_ms)
        self._record(root, select, start_ms, "partial" if answer.partial else "ok", answer)
        self._tick()
        return answer

    def _tick(self) -> None:
        """Archive a metrics snapshot, and evaluate the SLOs over it, once
        the cadence interval elapsed (the simulated clock has no threads)."""
        if self.archiver is not None and self.archiver.maybe_snapshot():
            self.slo.evaluate()

    def _record(self, root, select, start_ms, status, answer=None) -> None:
        """Observing: label the root span, add the query's
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
                server=self.tracer.server,
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


def _breaker_key(sub) -> str:
    """Breaker identity of the backend one sub-query touches."""
    loc = sub.location
    return f"peer:{loc.remote_server}" if loc.is_remote else f"db:{loc.database_name}"


def _guard(resilience):
    def guard(key: str, fn, ctx: QueryContext):
        return resilience.call(key, fn, ctx.deadline_at_ms)

    return guard


def _guarded(run, guard):
    """Breaker + retry: an open breaker refuses instantly instead of
    paying ``PARTITION_TIMEOUT_MS``; transient failures back off."""

    def guarded(sub, ctx: QueryContext):
        return guard(_breaker_key(sub), lambda: run(sub, ctx), ctx)

    return guarded


def _traced(run, tracer, router):
    """One ``subquery`` span per attempt: a failed attempt and its
    failover retry show up as siblings, the failed one with its error."""

    def traced(sub, ctx: QueryContext):
        loc = sub.location
        with tracer.span(
            "subquery",
            binding=sub.binding,
            database=loc.database_name,
            table=loc.logical_table,
            host=router.host_of(sub) or "?",
        ) as span:
            columns, types, rows, via = run(sub, ctx)
            span.set("route", via).set("rows", len(rows))
        return columns, types, rows, via

    return traced


def _failing_over(run, failover):
    def failing_over(sub, ctx: QueryContext):
        return failover(run, sub, ctx)

    return failing_over


def _cached(run, cache, clock, span, host):
    """The sub-result cache, consulted before any connect or transfer.

    A hit costs ``CACHE_HIT_MS`` and reports route ``cache``. Remote
    sub-queries pass through (their answers are cached in the peer
    client), and rows a failover replica served are not stored: their
    freshness would hang off the wrong database's epoch.
    """

    def cached(sub, ctx: QueryContext):
        loc = sub.location
        if loc.is_remote:
            return run(sub, ctx)
        # keyed on the values of the sub-query's own ``?``: they keep
        # their index in the client's query, so one text can bind
        # different values of the same client params
        key = cache.sub_key(sub, sub.own_params(ctx.params))
        hit = cache.lookup_sub(key)
        if hit is None:
            result = run(sub, ctx)
            if ctx.provenance[sub.binding][3] == loc.database_name:
                cache.store_sub(key, result, tag=loc.database_name)
            return result
        columns, types, rows, _via = hit
        start_ms = clock.now_ms
        with span(
            "subquery",
            binding=sub.binding,
            database=loc.database_name,
            table=loc.logical_table,
            host=host,
        ) as hit_span:
            clock.advance_ms(costs.CACHE_HIT_MS)
            cache.record_hit_latency(costs.CACHE_HIT_MS)
            hit_span.set("route", "cache").set("rows", len(rows))
        ctx.provenance[sub.binding] = (
            start_ms, clock.now_ms, host, loc.database_name, loc.url,
        )
        # the entry's rows carry their size record: a hit is not re-sized
        return list(columns), list(types), rows.copy(), "cache"

    return cached
