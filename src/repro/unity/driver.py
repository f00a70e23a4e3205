"""The enhanced Unity driver: plan → fetch → integrate.

Both this driver (pure JDBC, as the original Unity driver worked) and
the data access service (which routes each sub-query through POOL-RAL,
JDBC or a remote server, §4.5) fetch their sub-results through the
sub-query pipeline, then hand them to ``integrate_plan``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    Built from the query's provenance: ``start_ms``/``end_ms`` are
    simulated-clock stamps around the execution that served the
    sub-query, and ``database``/``url``/``replica_host`` name where it
    ran (after replica selection or failover).
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


def integrate_plan(plan: DecomposedQuery, fetched: dict, ctx, clock) -> FederatedResult:
    """Integrate already-fetched sub-results into the final answer.

    ``fetched`` maps each binding to its ``(columns, types, rows, via)``.
    Each sub-query's trace comes from ``ctx.provenance``; a branch lost
    to ``allow_partial`` has none, and keeps the plan's location stamped
    with the integration instant.
    """
    now = clock.now_ms
    sub_results: dict[str, tuple[list[str], list[SQLType], list[tuple]]] = {}
    traces: list[SubQueryTrace] = []
    for sub in plan.subqueries:
        loc = sub.location
        columns, types, rows, via = fetched[sub.binding]
        if plan.kind == "single":
            columns = _logicalize_columns(columns, sub)
            if sub.select.limit is not None and get_dialect(loc.vendor).limit_applied_client_side:
                rows = rows[: sub.select.limit]
        sub_results[sub.binding] = (columns, types, rows)
        start_ms, end_ms, host, database, url = ctx.provenance.get(
            sub.binding, (now, now, None, loc.database_name, loc.url)
        )
        traces.append(SubQueryTrace(
            sub.binding, database, url, loc.vendor, sub.sql, len(rows), via,
            start_ms, end_ms, host,
        ))
    if plan.kind == "single":
        columns, types, rows = sub_results[plan.subqueries[0].binding]
        return FederatedResult(columns, types, list(rows), plan, traces)
    result = Integrator(clock).integrate(plan, sub_results, ctx.params)
    return FederatedResult(result.columns, result.types, result.rows, plan, traces)


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

        self.dictionary = dictionary
        self.directory = directory
        self.clock = clock or SimClock()
        self.network = network
        self.host = host
        self.pushdown = pushdown
        self.user = user
        self.password = password
        self.preflight = preflight
        self.router = SubQueryRouter(
            None, directory, clock=self.clock, network=network, host=host,
            user=user, password=password, force_jdbc=True,
        )
        self.metrics = self.router.metrics
        # the opt-in layers (spans + profiler, plan + sub-result caches,
        # retry/backoff + per-database breakers) exist only when switched on
        self.pipeline = SubQueryPipeline(
            self.router, host or "unity", observe=observe, cache=cache,
            epochs=epochs, resilience=resilience,
        )
        self.tracer = self.pipeline.tracer
        self.profiler = self.pipeline.profiler
        self.cache = self.pipeline.cache
        self.resilience = self.pipeline.resilience

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
            fetched = {sub.binding: self.pipeline.run(sub, ctx) for sub in plan.subqueries}
            result = integrate_plan(plan, fetched, ctx, self.clock)
            span.set("rows", len(result.rows))
        self.metrics.counter("queries").inc()
        self.metrics.histogram("query_ms").observe(self.clock.now_ms - start_ms)
        if self.profiler is not None:
            shape = sql if isinstance(sql, str) else sql.unparse()
            self.profiler.record(span, self.tracer.trace_spans(span), shape=shape)
        return result
