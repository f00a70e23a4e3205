"""Result integration: sub-results → scratch engine → final 2-D vector.

The integrator creates a throwaway engine database, loads each
sub-query's rows as a scratch table named by its binding (columns carry
logical names and merged logical types), then executes the integration
query there. Cross-database joins therefore get the full executor
treatment — hash joins, three-valued logic, grouping — rather than a
bespoke merge loop.
"""

from __future__ import annotations

from repro.common.types import SQLType
from repro.engine.database import Database, ExecResult
from repro.engine.storage import Column
from repro.net import costs
from repro.net.simclock import SimClock
from repro.unity.decompose import DecomposedQuery


class Integrator:
    """Builds the scratch database and runs the integration query."""

    def __init__(self, clock=None):
        self.clock = clock or SimClock()

    def integrate(
        self,
        plan: DecomposedQuery,
        sub_results: dict[str, tuple[list[str], list[SQLType], list[tuple]]],
        params: tuple = (),
    ) -> ExecResult:
        """Merge ``sub_results`` (keyed by binding) per ``plan``.

        Each sub-result is ``(columns, types, rows)`` with logical column
        names, as produced by executing ``SubQuery.select`` anywhere.
        """
        assert plan.integration is not None, "single-database plans skip integration"
        scratch = Database("__integration__", "generic")
        total_rows = 0
        for sub in plan.subqueries:
            columns, types, rows = sub_results[sub.binding]
            scratch.catalog.create_table(
                sub.binding,
                [Column(name=c, type=t) for c, t in zip(columns, types)],
            )
            storage = scratch.catalog.get_table(sub.binding)
            storage.append_rows(rows)
            total_rows += len(rows)
        # Building scratch tables is the "integration" cost of §5.2.
        self.clock.advance_ms(total_rows * costs.MERGE_PER_ROW_MS)
        if plan.integration.joins:
            # Hash-join build/probe work in the data access layer.
            sizes = sorted(len(r[2]) for r in sub_results.values())
            if sizes:
                self.clock.advance_ms(sizes[0] * costs.XJOIN_BUILD_ROW_MS)
                self.clock.advance_ms(sum(sizes[1:]) * costs.XJOIN_PROBE_ROW_MS)
        return scratch.execute_statement(plan.integration, params)
