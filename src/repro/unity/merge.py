"""Result integration: sub-results → final 2-D vector.

The integrator runs the integration query over the sub-results where
they are held: each is a table named by its binding (columns carry
logical names and the types the mart or the peer reported), read in
place through :class:`~repro.engine.executor.HeldRows`. Cross-database
joins therefore get the full executor treatment — hash joins,
three-valued logic, grouping — rather than a bespoke merge loop, and no
row is copied or re-checked on the way in.
"""

from __future__ import annotations

from repro.common.types import SQLType
from repro.engine.executor import ExecResult, HeldRows, SelectExecutor
from repro.net import costs
from repro.sql.eval import SchemaColumn
from repro.unity.decompose import DecomposedQuery


class Integrator:
    """Runs the integration query over the held sub-results."""

    def __init__(self, clock):
        self.clock = clock

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
        sizes = sorted(len(rows) for _, _, rows in sub_results.values())
        # Taking in the sub-results is the "integration" cost of §5.2.
        self.clock.advance_ms(sum(sizes) * costs.MERGE_PER_ROW_MS)
        if plan.integration.joins:
            # Hash-join build/probe work in the data access layer.
            self.clock.advance_ms(sizes[0] * costs.XJOIN_BUILD_ROW_MS)
            self.clock.advance_ms(sum(sizes[1:]) * costs.XJOIN_PROBE_ROW_MS)
        tables = HeldRows()
        for binding, (columns, types, rows) in sub_results.items():
            tables[binding.lower()] = (
                [SchemaColumn(None, c, t) for c, t in zip(columns, types)], rows,
            )
        return SelectExecutor(tables, params).execute(plan.integration)
