"""EXPLAIN-ANALYZE for federated queries: span trees → operator costs.

PR 2's tracer captures *what happened* to a query as a span tree; this
module folds that tree into the per-operator cost model a DBA expects
from ``EXPLAIN ANALYZE``: for every stage of the pipeline (parse, lint,
plan-cache, decompose, RLS resolve, connect, per-backend execute,
transfer, merge) the **cumulative** time (the span's wall interval) and
the **self** time (the part of the query's wall clock attributable to
that stage and nothing deeper).

Self-time is computed by a sweep over the root span's interval: each
elementary sub-interval is attributed to the deepest span(s) covering
it. Parallel sibling branches (the simclock forks per backend and joins
at the max, so sibling sub-query spans legitimately *overlap* in
simulated time) split the overlapped instants equally — which keeps the
invariant tests and the wire method rely on: **the self-times of a
query's operators sum exactly to its traced latency**.

A :class:`QueryProfiler` retains the ``TOP_N`` slowest profiles and
exports folded-stack lines (``query;decompose 12.4``) ready for any
flame-graph renderer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: how many of the slowest profiles a profiler retains
TOP_N = 20


@dataclass
class OperatorCost:
    """One pipeline stage's cost inside one query (or one aggregate)."""

    stage: str
    server: str
    calls: int = 0
    self_ms: float = 0.0
    cum_ms: float = 0.0

    def as_dict(self) -> dict:
        """Wire-safe struct (survives the XML-RPC codec)."""
        return {
            "stage": self.stage,
            "server": self.server,
            "calls": int(self.calls),
            "self_ms": round(float(self.self_ms), 6),
            "cum_ms": round(float(self.cum_ms), 6),
        }


@dataclass
class QueryProfile:
    """The per-operator cost breakdown of one completed query."""

    trace_id: str
    shape: str
    server: str
    total_ms: float
    ts_ms: float
    operators: list[OperatorCost] = field(default_factory=list)
    #: aggregated (stack-path, self_ms) pairs — flame-graph input
    folded: list[tuple[str, float]] = field(default_factory=list)

    @property
    def self_total_ms(self) -> float:
        """Sum of operator self-times; equals ``total_ms`` by construction."""
        return sum(op.self_ms for op in self.operators)

    def folded_lines(self) -> list[str]:
        """Folded-stack text lines (``a;b;c <self_ms>``), flame-graph ready."""
        return [f"{path} {self_ms:.3f}" for path, self_ms in self.folded]

    def as_dict(self) -> dict:
        """Wire-safe struct for the ``dataaccess.profile`` method."""
        return {
            "trace_id": self.trace_id,
            "shape": self.shape,
            "server": self.server,
            "total_ms": round(float(self.total_ms), 6),
            "self_total_ms": round(float(self.self_total_ms), 6),
            "ts_ms": float(self.ts_ms),
            "operators": [op.as_dict() for op in self.operators],
            "folded": self.folded_lines(),
        }


def _self_times(root, spans) -> dict[str, float]:
    """Per-span self wall-time; conserving: values sum to root duration.

    Every span is clamped into the root's interval; each elementary
    interval of the sweep is charged to the deepest covering span(s),
    split equally when parallel siblings overlap.
    """
    root_start = root.start_ms
    root_end = root.end_ms if root.end_ms is not None else root.start_ms
    clamped: dict[str, tuple[float, float]] = {}
    for span in spans:
        end = span.end_ms if span.end_ms is not None else span.start_ms
        lo = min(max(span.start_ms, root_start), root_end)
        hi = min(max(end, root_start), root_end)
        clamped[span.span_id] = (lo, hi)

    ids = {s.span_id for s in spans}
    children: dict[str, list] = {}
    for span in spans:
        if span.parent_id in ids and span.span_id != root.span_id:
            children.setdefault(span.parent_id, []).append(span)

    bounds = sorted({b for pair in clamped.values() for b in pair})
    self_ms = {s.span_id: 0.0 for s in spans}
    for t0, t1 in zip(bounds, bounds[1:]):
        if t1 <= t0:
            continue
        cover = [
            s for s in spans
            if clamped[s.span_id][0] <= t0 and clamped[s.span_id][1] >= t1
        ]
        if not cover:
            continue
        covering = {s.span_id for s in cover}
        deepest = [
            s for s in cover
            if not any(c.span_id in covering for c in children.get(s.span_id, []))
        ]
        share = (t1 - t0) / len(deepest)
        for s in deepest:
            self_ms[s.span_id] += share
    return self_ms


def _stack_path(span, by_id: dict) -> str:
    """The ``root;...;stage`` path of one span (folded-stack form)."""
    path = [span.stage]
    seen = {span.span_id}
    parent = by_id.get(span.parent_id)
    while parent is not None and parent.span_id not in seen:
        path.append(parent.stage)
        seen.add(parent.span_id)
        parent = by_id.get(parent.parent_id)
    return ";".join(reversed(path))


class QueryProfiler:
    """Profiles completed span trees; retains the slowest."""

    def __init__(self, clock):
        self.clock = clock
        #: top-N slowest profiles, sorted slowest-first
        self.slowest: list[QueryProfile] = []
        #: most recently recorded profile
        self.last: QueryProfile | None = None
        self.profiled = 0
        self._by_trace: dict[str, QueryProfile] = {}

    # -- recording ---------------------------------------------------------------

    def record(self, root, spans, shape: str) -> QueryProfile:
        """Fold one finished trace (root + its spans) into a profile."""
        if root not in spans:
            spans = [root, *spans]
        self_ms = _self_times(root, spans)
        by_id = {s.span_id: s for s in spans}

        operators: dict[tuple[str, str], OperatorCost] = {}
        folded: dict[str, float] = {}
        for span in spans:
            server = span.server or "?"
            key = (span.stage, server)
            op = operators.get(key)
            if op is None:
                op = operators[key] = OperatorCost(stage=span.stage, server=server)
            end = span.end_ms if span.end_ms is not None else span.start_ms
            op.calls += 1
            op.self_ms += self_ms[span.span_id]
            op.cum_ms += end - span.start_ms
            path = _stack_path(span, by_id)
            folded[path] = folded.get(path, 0.0) + self_ms[span.span_id]

        root_end = root.end_ms if root.end_ms is not None else root.start_ms
        profile = QueryProfile(
            trace_id=root.trace_id,
            shape=shape,
            server=root.server or "?",
            total_ms=root_end - root.start_ms,
            ts_ms=self.clock.now_ms,
            operators=sorted(
                operators.values(), key=lambda op: (-op.self_ms, op.stage, op.server)
            ),
            folded=sorted(folded.items()),
        )
        self._retain(profile)
        self.profiled += 1
        return profile

    def _retain(self, profile: QueryProfile) -> None:
        self.last = profile
        self.slowest.append(profile)
        self.slowest.sort(key=lambda p: -p.total_ms)
        del self.slowest[TOP_N:]
        self._by_trace = {p.trace_id: p for p in self.slowest}
        self._by_trace[profile.trace_id] = profile

    # -- views --------------------------------------------------------------------

    def get(self, trace_id: str | None = None) -> QueryProfile | None:
        """A retained profile by trace id; the most recent when omitted."""
        if trace_id:
            return self._by_trace.get(trace_id)
        return self.last

    def profile_rows(self) -> list[tuple]:
        """``monitor_profile`` rows: one per operator per retained profile."""
        rows: list[tuple] = []
        for profile in self.slowest:
            for op in profile.operators:
                rows.append(
                    (
                        float(profile.ts_ms),
                        profile.trace_id,
                        profile.shape[:500],
                        profile.server,
                        op.stage,
                        op.server,
                        int(op.calls),
                        float(op.self_ms),
                        float(op.cum_ms),
                        float(profile.total_ms),
                    )
                )
        return rows
