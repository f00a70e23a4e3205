"""The enhanced Unity driver: plan → fetch → integrate.

``execute_plan`` is the shared orchestration used both here (pure
JDBC, as the original Unity driver worked) and by the data access
service (which routes each sub-query through POOL-RAL or JDBC, §4.5).
A ``SubQueryRunner`` abstracts that choice: it executes one sub-query
somewhere and reports how.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.cache import normalize_sql
from repro.common.types import SQLType
from repro.dialects import get_dialect
from repro.driver.directory import Directory
from repro.engine.storage import estimate_row_bytes  # noqa: F401 - perfbench counts calls at this binding
from repro.metadata.dictionary import DataDictionary
from repro.net import costs
from repro.net.simclock import SimClock
from repro.sql import ast
from repro.sql.parser import parse_select
from repro.unity.decompose import DecomposedQuery, SubQuery, decompose
from repro.unity.merge import Integrator


@dataclass
class SubQueryTrace:
    """What happened to one sub-query (exposed to tests and benches).

    ``start_ms``/``end_ms`` are simulated-clock stamps around the
    runner call; ``replica_host`` is the host that actually served the
    sub-query (after replica selection or failover), filled in by the
    data access service when it knows better than the plan did.
    """

    binding: str
    database: str
    url: str
    vendor: str
    sql: str
    rows: int
    via: str  # 'jdbc' | 'pool' | 'remote'
    start_ms: float = 0.0
    end_ms: float = 0.0
    replica_host: str | None = None

    @property
    def duration_ms(self) -> float:
        """Simulated time the sub-query took, fetch included."""
        return self.end_ms - self.start_ms


@dataclass
class FederatedResult:
    """Final merged result: the paper's 2-D vector plus provenance."""

    columns: list[str]
    types: list[SQLType]
    rows: list[tuple]
    plan: DecomposedQuery
    traces: list[SubQueryTrace] = field(default_factory=list)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def to_vector(self) -> list[list]:
        return [list(r) for r in self.rows]

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for i, c in enumerate(self.columns):
            if c.lower() == lowered:
                return i
        raise KeyError(name)


class SubQueryRunner(Protocol):
    """Executes one sub-query and returns (columns, types, rows, via)."""

    def __call__(
        self, sub: SubQuery, params: tuple
    ) -> tuple[list[str], list[SQLType], list[tuple], str]: ...


def execute_plan(
    plan: DecomposedQuery,
    runner: SubQueryRunner,
    params: tuple = (),
    clock=None,
) -> FederatedResult:
    """Run every sub-query through ``runner`` and integrate."""
    clock = clock or SimClock()
    traces: list[SubQueryTrace] = []
    if plan.kind == "single":
        sub = plan.subqueries[0]
        t0 = clock.now_ms
        columns, types, rows, via = runner(sub, params)
        t1 = clock.now_ms
        columns = _logicalize_columns(columns, sub)
        if sub.select.limit is not None:
            vendor_dialect = get_dialect(sub.location.vendor)
            if vendor_dialect.limit_applied_client_side:
                rows = rows[: sub.select.limit]
        traces.append(_trace(sub, len(rows), via, t0, t1))
        return FederatedResult(columns, types, list(rows), plan, traces)

    sub_results: dict[str, tuple[list[str], list[SQLType], list[tuple]]] = {}
    for sub in plan.subqueries:
        t0 = clock.now_ms
        columns, types, rows, via = runner(sub, params)
        t1 = clock.now_ms
        sub_results[sub.binding] = (columns, types, rows)
        traces.append(_trace(sub, len(rows), via, t0, t1))
    result = Integrator(clock).integrate(plan, sub_results, params)
    return FederatedResult(result.columns, result.types, result.rows, plan, traces)


def _trace(
    sub: SubQuery, rows: int, via: str, start_ms: float, end_ms: float
) -> SubQueryTrace:
    return SubQueryTrace(
        binding=sub.binding,
        database=sub.location.database_name,
        url=sub.location.url,
        vendor=sub.location.vendor,
        sql=sub.sql,
        rows=rows,
        via=via,
        start_ms=start_ms,
        end_ms=end_ms,
    )


def _logicalize_columns(columns: list[str], sub: SubQuery) -> list[str]:
    """Map physical output names back to logical ones (star pushdowns)."""
    reverse = {
        c.name.lower(): c.logical_name for c in sub.location.table.columns
    }
    return [reverse.get(c.lower(), c) for c in columns]


class UnityDriver:
    """The federated driver in its standalone (pure JDBC) form.

    Its sub-queries take the data access service's pipeline and router
    with every route but JDBC switched off (``force_jdbc``).
    """

    def __init__(
        self,
        dictionary: DataDictionary,
        directory: Directory,
        clock=None,
        network=None,
        host: str | None = None,
        pushdown: bool = True,
        user: str = "grid",
        password: str = "grid",
        preflight: bool = False,
        observe: bool = False,
        cache: bool = False,
        epochs=None,
        resilience=False,
    ):
        # the core package imports this module: bind its names lazily
        from repro.core.pipeline import SubQueryPipeline
        from repro.core.router import SubQueryRouter
        from repro.obs.metrics import MetricsRegistry

        self.dictionary = dictionary
        self.directory = directory
        self.clock = clock or SimClock()
        self.network = network
        self.host = host
        self.pushdown = pushdown
        self.user = user
        self.password = password
        self.preflight = preflight
        self.metrics = MetricsRegistry()
        self.tracer = None
        self.profiler = None
        if observe:
            from repro.obs.profiler import QueryProfiler
            from repro.obs.trace import Tracer

            self.tracer = Tracer(self.clock, host or "unity")
            self.profiler = QueryProfiler(self.clock)
        # Opt-in multi-level caching (plan + sub-results) and retry/backoff
        # + per-database breakers: each exists only when switched on.
        self.cache = None
        if cache:
            from repro.cache import CacheManager

            self.cache = CacheManager(
                clock=self.clock, metrics=self.metrics, epochs=epochs
            )
        self.resilience = None
        if resilience:
            from repro.resilience import ResilienceConfig, ResilienceManager

            config = resilience if isinstance(resilience, ResilienceConfig) else None
            self.resilience = ResilienceManager(
                clock=self.clock, metrics=self.metrics, config=config,
                tracer=self.tracer,
            )
        self.router = SubQueryRouter(
            None, directory, clock=self.clock, network=network, host=host,
            user=user, password=password, force_jdbc=True, metrics=self.metrics,
        )
        self.pipeline = SubQueryPipeline(
            self.router, host=host, cache=self.cache,
            resilience=self.resilience, tracer=self.tracer,
        )

    # -- public API -------------------------------------------------------------------

    def _preflight(
        self, select: ast.Select, prefer_databases: dict[str, str] | None
    ) -> None:
        """Lint against the dictionary and refuse before anything ships."""
        from repro.common.errors import PreflightError
        from repro.lint import DictionarySchema, lint_select

        report = lint_select(
            select, DictionarySchema(self.dictionary, prefer_databases)
        )
        if not report.ok:
            raise PreflightError(report.errors)

    def plan(
        self, sql: str | ast.Select, prefer_databases: dict[str, str] | None = None
    ) -> DecomposedQuery:
        prefer = tuple(sorted((prefer_databases or {}).items()))
        plan_key = (normalize_sql(sql), prefer)
        cached = self.pipeline.plans.get_plan(plan_key)
        if cached is not None:
            # decomposition and the per-participant XSpec metadata
            # parse were paid when the plan was cached
            return cached.plan
        select = parse_select(sql) if isinstance(sql, str) else sql
        if self.preflight:
            self._preflight(select, prefer_databases)
        self.clock.advance_ms(costs.DECOMPOSE_MS)
        plan = decompose(
            select, self.dictionary, pushdown=self.pushdown,
            prefer_databases=prefer_databases,
        )
        # Parsing each participant's XSpec metadata per query (§4.2's
        # N×S criticism) is a real per-query cost in the prototype.
        self.clock.advance_ms(len(plan.databases) * costs.UNITY_METADATA_PARSE_MS)
        self.pipeline.plans.put_plan(plan_key, select, plan)
        return plan

    def execute(
        self,
        sql: str | ast.Select,
        params: tuple = (),
        prefer_databases: dict[str, str] | None = None,
    ) -> FederatedResult:
        start_ms = self.clock.now_ms
        ctx = self.pipeline.context(params)
        with self.pipeline.span("query") as span:
            with self.pipeline.span("decompose"):
                plan = self.plan(sql, prefer_databases)
            # planning parsed every participant's metadata (or the plan
            # cache carried it): the JDBC route must not pay it again
            ctx.parsed = frozenset(plan.databases)
            result = execute_plan(
                plan, lambda sub, _params: self.pipeline.run(sub, ctx),
                params, self.clock,
            )
            span.set("rows", len(result.rows))
        self.metrics.counter("queries").inc()
        self.metrics.histogram("query_ms").observe(self.clock.now_ms - start_ms)
        if self.profiler is not None:
            shape = sql if isinstance(sql, str) else sql.unparse()
            self.profiler.record(span, self.tracer.trace_spans(span), shape=shape)
        return result
