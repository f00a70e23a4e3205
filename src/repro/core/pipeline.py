"""One sub-query pipeline for the data access service and the Unity driver.

The paper's Data Access Service makes one decision per sub-query: run
it through POOL-RAL, through JDBC/Unity, or forward it to the remote
JClarens server hosting its table (§4.5), failing over to a replica
when its backend is dead (§4.8). :class:`SubQueryPipeline` is that path,
composed once at construction from the layers that are switched on,
which it also builds — the one place the tracer, profiler, cache manager
and resilience manager of a service or driver come from::

    cache -> failover -> breaker/retry -> span -> SubQueryRouter

A layer that is off is absent from the chain, so with cache, observe
and resilience off a sub-query runs straight through the router, as the
prototype did. Per-query state travels down the chain in a
:class:`QueryContext` instead of living on shared objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache import CacheManager
from repro.net import costs
from repro.obs.profiler import QueryProfiler
from repro.obs.trace import NOOP_SPAN, Tracer
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


class _NoPlanCache:
    """The plan cache of a pipeline whose cache layer is off."""

    @staticmethod
    def get_plan(key):
        return None

    @staticmethod
    def put_plan(key, select, plan, remote_servers=()) -> None:
        pass


class SubQueryPipeline:
    """Builds the switched-on layers, runs a sub-query through them, then
    routes it.

    The layers share the router's clock and metrics registry. ``observe``
    builds a tracer (its spans labelled ``name``) and a profiler;
    ``cache`` a cache manager on the shared ``epochs``; ``resilience``
    (True or a ``ResilienceConfig``) a resilience manager. An off layer
    is None. ``failover(run, sub, ctx)`` (the service's replica walk)
    receives the guarded inner chain, so each replica attempt gets its
    own breaker, retries and span. Cache hits are labelled with the
    router's host, which serves them.
    """

    #: the layers this pipeline built (None: switched off)
    tracer = profiler = cache = resilience = None
    #: span factory: the tracer's, or the shared no-op
    span = staticmethod(_no_span)
    #: level-1 cache of decomposition plans (a no-op when cache is off)
    plans = _NoPlanCache
    #: ``guard(key, fn, ctx)``: fn() behind key's breaker and retries
    guard = staticmethod(_unguarded)
    _deadline_ms = None

    def __init__(self, router, name=None, observe=False, cache=False, epochs=None,
                 resilience=False, failover=None):
        clock = self.clock = router.clock
        run = router
        if observe:
            self.tracer = Tracer(clock, name)
            self.profiler = QueryProfiler(clock)
            self.span = self.tracer.span
            run = _traced(run, self.tracer, router)
        if resilience:
            config = resilience if isinstance(resilience, ResilienceConfig) else None
            self.resilience = ResilienceManager(clock, router.metrics, config, self.tracer)
            self._deadline_ms = self.resilience.policy.deadline_ms
            self.guard = _guard(self.resilience)
            run = _guarded(run, self.guard)
        if failover is not None:
            run = _failing_over(run, failover)
        if cache:
            self.cache = self.plans = CacheManager(clock, router.metrics, epochs)
            run = _cached(run, self.cache, clock, self.span, router.host)
        #: ``run(sub, ctx) -> (columns, types, rows, via)``
        self.run = run

    def context(
        self, params: tuple = (), allow_partial: bool = False, trace_parent=None
    ) -> QueryContext:
        """A fresh context; the retry deadline budget starts now."""
        deadline = None
        if self._deadline_ms is not None:
            deadline = self.clock.now_ms + self._deadline_ms
        return QueryContext(params, allow_partial, deadline, trace_parent)


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
        key = cache.sub_key(sub, ctx.params)
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
        return list(columns), list(types), list(rows), "cache"

    return cached
