"""Cut-flow analysis: the HEP selection-efficiency table.

A physics analysis applies a *sequence* of cuts (predicates) to an
event sample and reports, after each cut, how many events survive and
the marginal/cumulative efficiency — the first table in every analysis
note. :class:`CutFlow` computes it with grid queries: each stage is a
conjunction of the cuts so far, counted through the web-service
interface, so the flow works identically on a local mart or a
federated, replicated table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ReproError


@dataclass(frozen=True)
class CutStage:
    """One row of the cut-flow table."""

    name: str
    predicate: str
    passed: int
    marginal_efficiency: float  # vs the previous stage
    cumulative_efficiency: float  # vs the initial sample


class CutFlow:
    """Sequential selection over one logical table."""

    def __init__(self, run_count, table: str):
        """``run_count(where_sql | None) -> int`` counts surviving rows;
        the federation flavour is built by :func:`grid_cutflow`."""
        self._count = run_count
        self.table = table
        self.cuts: list[tuple[str, str]] = []

    def add_cut(self, name: str, predicate: str) -> "CutFlow":
        """Append a named cut (a SQL boolean expression); chainable."""
        if not predicate.strip():
            raise ReproError(f"cut {name!r} has an empty predicate")
        self.cuts.append((name, predicate))
        return self

    def run(self) -> list[CutStage]:
        """Count survivors after each cumulative cut."""
        initial = self._count(None)
        stages = [
            CutStage(
                name="all events",
                predicate="",
                passed=initial,
                marginal_efficiency=1.0,
                cumulative_efficiency=1.0,
            )
        ]
        previous = initial
        conjuncts: list[str] = []
        for name, predicate in self.cuts:
            conjuncts.append(f"({predicate})")
            passed = self._count(" AND ".join(conjuncts))
            stages.append(
                CutStage(
                    name=name,
                    predicate=predicate,
                    passed=passed,
                    marginal_efficiency=(passed / previous) if previous else 0.0,
                    cumulative_efficiency=(passed / initial) if initial else 0.0,
                )
            )
            previous = passed
        return stages

    def render(self) -> str:
        """The classic cut-flow table as text."""
        stages = self.run()
        width = max(len(s.name) for s in stages)
        lines = [
            f"cut flow over {self.table!r}",
            f"{'cut'.ljust(width)} | {'passed':>8} | {'marg eff':>8} | {'cum eff':>8}",
        ]
        for s in stages:
            lines.append(
                f"{s.name.ljust(width)} | {s.passed:>8} | "
                f"{s.marginal_efficiency:>8.3f} | {s.cumulative_efficiency:>8.3f}"
            )
        return "\n".join(lines)


def grid_cutflow(federation, client, server, table: str) -> CutFlow:
    """Cut flow counting through the web-service interface."""

    def count(where: str | None) -> int:
        sql = f"SELECT COUNT(*) FROM {table}"
        if where:
            sql += f" WHERE {where}"
        outcome = federation.query(client, server, sql)
        return outcome.answer.rows[0][0]

    return CutFlow(count, table)
