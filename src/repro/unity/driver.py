"""The enhanced Unity driver: plan → fetch → integrate.

Both this driver (pure JDBC, as the original Unity driver worked) and
the data access service (which routes each sub-query through POOL-RAL,
JDBC or a remote server, §4.5) fetch their sub-results through the
sub-query pipeline, then hand them to ``integrate_plan``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from repro.clarens.codec import SizedRows, sized
from repro.common.types import SQLType
from repro.dialects import get_dialect
from repro.driver.directory import Directory
from repro.engine.executor import RowSet
from repro.engine.storage import estimate_row_bytes  # noqa: F401 - perfbench counts calls at this binding
from repro.metadata.dictionary import DataDictionary
from repro.metadata.xspec import parse_type_text
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


@dataclass
class QueryAnswer(RowSet):
    """A fully integrated answer (the paper's 2-D vector) plus provenance.

    The one answer type of every route: ``UnityDriver.execute`` and
    ``DataAccessService.execute`` return it, and ``from_wire`` rebuilds
    it on the client side of ``dataaccess.query``. A decoded answer
    leaves the fields the wire does not carry (``databases``,
    ``traces``, ``profile``) empty.
    """

    columns: list[str]
    types: list[SQLType]
    rows: list[tuple]
    distributed: bool
    databases: tuple[str, ...]
    servers_accessed: int
    tables_accessed: int
    routes: list[str] = field(default_factory=list)
    #: per-sub-query provenance (timings, replica host) — see SubQueryTrace
    traces: list[SubQueryTrace] = field(default_factory=list)
    #: True when an ``allow_partial`` query lost at least one sub-query
    #: branch — the rows are an under-approximation, never silently so
    partial: bool = False
    #: per-failed-sub-query provenance (resilience.SubQueryFailure; its
    #: ``as_dict`` form on a decoded answer)
    failures: list = field(default_factory=list)
    #: per-operator cost breakdown (obs.profiler.QueryProfile) when the
    #: serving service observes; None otherwise
    profile: object = None
    #: the frozen rows ``rows`` was built from, size record included;
    #: ``to_wire`` reuses them while ``rows`` still holds the same rows
    sized_rows: SizedRows | None = field(default=None, compare=False, repr=False)

    def to_wire(self, allow_partial: bool = False) -> dict:
        """The ``dataaccess.query`` response struct: plain lists, and
        the rows as one frozen :class:`SizedRows` tuple of row tuples
        (the encoder writes tuples as arrays).

        Only partial-tolerant callers get (and pay the bytes for) the
        ``partial`` and ``failures`` keys.
        """
        rows = self.sized_rows
        if rows is None or len(rows) != len(self.rows) or not all(
            map(operator.is_, rows, self.rows)
        ):
            # ``rows`` changed after the answer was built: freeze it afresh
            rows = sized(self.rows)
        out = {
            "columns": list(self.columns),
            "types": [str(t) for t in self.types],
            "rows": rows,
            "distributed": self.distributed,
            "servers": self.servers_accessed,
            "tables": self.tables_accessed,
            "routes": list(self.routes),
        }
        if allow_partial:
            out["partial"] = self.partial
            out["failures"] = [f.as_dict() for f in self.failures]
        return out

    @classmethod
    def from_wire(cls, response: dict) -> "QueryAnswer":
        """Decode a ``dataaccess.query`` response struct. An in-process
        response's frozen rows are kept as they are; decoded row lists
        become tuples."""
        rows = response["rows"]
        if type(rows) is not SizedRows:
            rows = SizedRows(map(tuple, rows))
        return cls(
            columns=list(response["columns"]),
            types=[parse_type_text(t) for t in response["types"]],
            rows=list(rows),
            distributed=response["distributed"],
            databases=(),
            servers_accessed=response["servers"],
            tables_accessed=response["tables"],
            routes=list(response["routes"]),
            partial=bool(response.get("partial", False)),
            failures=list(response.get("failures", [])),
            sized_rows=rows,
        )


def integrate_plan(plan: DecomposedQuery, fetched: dict, ctx, clock) -> QueryAnswer:
    """Integrate already-fetched sub-results into the final answer.

    ``fetched`` maps each binding to its ``(columns, types, rows, via)``.
    Each sub-query's trace comes from ``ctx.provenance``; a branch lost
    to ``allow_partial`` has none, and keeps the plan's location stamped
    with the integration instant. The answer counts one server; a
    service forwarding to peers adds them.
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
        # the frozen sub-result passes on with its size record; rows cut
        # by a client-side LIMIT are a plain slice and are sized afresh
        columns, types, rows = sub_results[plan.subqueries[0].binding]
        frozen = sized(rows)
        rows = list(frozen)
    else:
        result = Integrator(clock).integrate(plan, sub_results, ctx.params)
        columns, types, rows = result.columns, result.types, result.rows
        frozen = None
    return QueryAnswer(
        columns, types, rows, plan.is_distributed, plan.databases,
        servers_accessed=1,
        tables_accessed=len(plan.original.referenced_tables()),
        routes=[t.via for t in traces],
        traces=traces,
        partial=bool(ctx.failures),
        failures=ctx.failures,
        sized_rows=frozen,
    )


def _logicalize_columns(columns: list[str], sub: SubQuery) -> list[str]:
    """Map physical output names back to logical ones (star pushdowns)."""
    reverse = sub.location.table.logical_by_physical
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
        observe: bool = False,
        cache: bool = False,
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
        self.router = SubQueryRouter(
            None, directory, clock=self.clock, network=network, host=host,
            force_jdbc=True,
        )
        self.metrics = self.router.metrics
        # the opt-in layers (the obs stack, plan + sub-result caches,
        # retry/backoff + per-database breakers) exist only when
        # switched on
        self.pipeline = SubQueryPipeline(
            self.router, host or "unity", observe=observe, cache=cache,
            resilience=resilience,
        )
        self.tracer = self.pipeline.tracer
        self.profiler = self.pipeline.profiler
        self.archiver = self.pipeline.archiver
        self.slo = self.pipeline.slo
        self.monitor = self.pipeline.monitor
        self.cache = self.pipeline.cache
        self.resilience = self.pipeline.resilience

    def _plan(self, key, select, cached) -> DecomposedQuery:
        if cached is not None:
            # decomposition and the per-participant XSpec metadata
            # parse were paid when the plan was cached
            return cached.plan
        try:
            plan = decompose(select, self.dictionary, pushdown=self.pushdown)
        finally:
            # a refused query pays for its decomposition too
            self.clock.advance_ms(costs.DECOMPOSE_MS)
        # Parsing each participant's XSpec metadata per query (§4.2's
        # N×S criticism) is a real per-query cost in the prototype.
        self.clock.advance_ms(len(plan.databases) * costs.UNITY_METADATA_PARSE_MS)
        self.pipeline.remember(key, select, plan)
        return plan

    # -- public API -------------------------------------------------------------------

    def execute(self, sql: str | ast.Select, params: tuple = ()) -> QueryAnswer:
        ctx = self.pipeline.context(params)
        # the driver plans without replica preferences
        key, select, cached = self.pipeline.lookup(sql, parse_select, lambda _select: None)

        def fetch_and_integrate():
            with self.pipeline.span("decompose"):
                plan = self._plan(key, select, cached)
            # planning parsed every participant's metadata (or the plan
            # cache carried it): the JDBC route must not pay it again
            ctx.parsed = frozenset(plan.databases)
            fetched = {sub.binding: self.pipeline.run(sub, ctx) for sub in plan.subqueries}
            return integrate_plan(plan, fetched, ctx, self.clock)

        return self.pipeline.serve(select, ctx, fetch_and_integrate)
