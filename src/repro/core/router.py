"""Sub-query routing: POOL-RAL vs JDBC vs remote forwarding (§4.5).

The rule is the paper's: a sub-query aimed at a database whose vendor
POOL supports goes through the POOL-RAL layer (cheap — the handle was
initialized when the database was registered); a sub-query for an
unsupported vendor goes through the Unity/JDBC path (expensive — a
fresh connect + authenticate per query); a sub-query whose table is not
registered locally is forwarded to the remote JClarens server the RLS
named. Remote forwarding is implemented by the service, which injects
``remote_fetch``. The standalone Unity driver is the ``force_jdbc``
special case.
"""

from __future__ import annotations

from typing import Callable

from repro.clarens.codec import SizedRows, sizes_of
from repro.common.errors import FederationError
from repro.common.types import SQLType
from repro.core.pipeline import QueryContext
from repro.dialects import get_dialect
from repro.driver.connection import connect
from repro.driver.directory import Directory
from repro.engine.storage import estimate_row_bytes  # noqa: F401 - perfbench counts calls at this binding
from repro.net import costs
from repro.net.simclock import SimClock
from repro.poolral.ral import PoolRAL
from repro.unity.decompose import SubQuery


def _no_remote_fetch(sub: SubQuery, params: tuple):
    raise FederationError(
        f"sub-query for {sub.binding!r} needs remote forwarding, "
        "but this router has no remote_fetch"
    )


class SubQueryRouter:
    """The innermost stage of the sub-query pipeline: route and run."""

    def __init__(
        self,
        ral: PoolRAL | None,
        directory: Directory,
        clock=None,
        network=None,
        host: str | None = None,
        user: str = "grid",
        password: str = "grid",
        force_jdbc: bool = False,
        remote_fetch: Callable[[SubQuery, tuple], tuple] | None = None,
        jdbc_pool=None,
        metrics=None,
    ):
        self.ral = ral
        self.directory = directory
        self.clock = clock or SimClock()
        self.network = network
        self.host = host
        self.user = user
        self.password = password
        self.force_jdbc = force_jdbc
        self.remote_fetch = remote_fetch or _no_remote_fetch
        #: optional ConnectionPool: reuse JDBC connections instead of the
        #: prototype's connect-per-query behaviour (the pooling ablation)
        self.jdbc_pool = jdbc_pool
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics

    @property
    def route_counts(self) -> dict[str, int]:
        """Per-route sub-query counts (a view over the metrics registry)."""
        return {
            via: int(self.metrics.counter(f"subqueries.{via}").value)
            for via in ("pool", "jdbc", "remote")
        }

    def _count_route(self, via: str, rows: list[tuple]) -> None:
        self.metrics.counter(f"subqueries.{via}").inc()
        self.metrics.counter("rows_moved").inc(len(rows))

    def _transfer_rows(self, from_host: str, rows: SizedRows) -> None:
        if self.network is None or self.host is None:
            return
        nbytes = sizes_of(rows).storage + 256
        self.network.transfer(from_host, self.host, nbytes, self.clock)

    # -- the rule ----------------------------------------------------------------

    def route_of(self, sub: SubQuery) -> str:
        """'remote', 'pool' or 'jdbc': where ``sub`` will run."""
        if sub.location.is_remote:
            return "remote"
        if not self.force_jdbc and self.ral.supports_url(sub.location.url):
            return "pool"
        return "jdbc"

    def host_of(self, sub: SubQuery) -> str | None:
        """The host serving ``sub`` (None when its database is not running)."""
        loc = sub.location
        if loc.is_remote:
            return loc.remote_server
        try:
            return self.directory.lookup(loc.url).host_name
        except Exception:  # noqa: BLE001 - labelling must never fail a query
            return None

    # -- the runner --------------------------------------------------------------

    def __call__(
        self, sub: SubQuery, ctx: QueryContext
    ) -> tuple[list[str], list[SQLType], list[tuple], str]:
        loc = sub.location
        start_ms = self.clock.now_ms
        via = self.route_of(sub)
        if via == "remote":
            columns, types, rows = self.remote_fetch(sub, ctx.params)
            self._count_route(via, rows)
            host = loc.remote_server
        else:
            fetch = self._via_pool if via == "pool" else self._via_jdbc
            columns, types, rows = fetch(sub, ctx)
            # the rows carry their sizes to every later hop: the
            # transfer below, the sub-result cache, the Clarens response
            rows = SizedRows(rows)
            self._count_route(via, rows)
            host = self.directory.lookup(loc.url).host_name
            self._transfer_rows(host, rows)
        ctx.provenance[sub.binding] = (
            start_ms, self.clock.now_ms, host, loc.database_name, loc.url,
        )
        return columns, types, rows, via

    # Both local routes hand the mart the statement the router already
    # holds: text is parsed only where it crosses a process boundary (at
    # the client, and at a remote peer). Its ``?`` keep their index in
    # the client's query, so the mart binds the client's whole params.

    def _via_pool(self, sub: SubQuery, ctx: QueryContext):
        stmt = get_dialect(sub.location.vendor).vendor_select(sub.select)
        cursor = self.ral.execute_sql(sub.location.url, stmt, ctx.params)
        rows = cursor.fetchall()
        return cursor.columns, cursor.types, rows

    def _via_jdbc(self, sub: SubQuery, ctx: QueryContext):
        # The Unity/JDBC path parses the database's XSpec metadata and
        # opens a fresh, authenticated connection for every query — the
        # dominant term in Table 1's distributed rows. A query that
        # already parsed the metadata (the driver's planning, a cached
        # plan) skips the parse; with a pool, the metadata is cached
        # alongside the connection and both costs disappear on a hit.
        stmt = get_dialect(sub.location.vendor).vendor_select(sub.select)
        if self.jdbc_pool is not None:
            connection = self.jdbc_pool.get(sub.location.url, self.user, self.password)

            def release():
                self.jdbc_pool.release(connection, self.user)
        else:
            if sub.location.database_name not in ctx.parsed:
                self.clock.advance_ms(costs.UNITY_METADATA_PARSE_MS)
            connection = connect(
                sub.location.url,
                self.user,
                self.password,
                directory=self.directory,
                clock=self.clock,
            )
            release = connection.close
        try:
            cursor = connection.execute(stmt, ctx.params)
            rows = cursor.fetchall()
            return cursor.columns, cursor.types, rows
        finally:
            release()
