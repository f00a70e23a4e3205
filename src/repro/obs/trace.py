"""Span-based query-lifecycle tracing on the virtual clock.

A :class:`Tracer` lives inside one JClarens server and stamps every
span from the server's :class:`~repro.net.simclock.SimClock`, so traces
carry *simulated* wall-time — the same milliseconds the paper's
benchmarks report. Spans nest through a context-manager stack
(``with tracer.span("decompose"): ...``), and trace/parent ids travel
across Clarens hops: the origin server sends ``{trace_id, parent_id}``
with a forwarded sub-query, the remote query's root span takes that
parent (it travels in the remote query's ``QueryContext``), and its
spans come back piggybacked on the response and are imported into the
origin's tracer — one federated query, one span tree.

Sibling sub-query spans executed by concurrent remote servers overlap
in simulated time (the clock forks per branch and joins at the max),
which is exactly the semantics a real distributed trace would show.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class _NoopSpan:
    """Allocation-free stand-in used when tracing is switched off.

    A single module-level instance (:data:`NOOP_SPAN`) is reused for
    every would-be span, so un-observed hot paths allocate no
    instrumentation objects at all.
    """

    __slots__ = ()

    trace_id = None
    span_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key, value) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


@dataclass
class Span:
    """One timed stage of a query's life, in simulated milliseconds."""

    trace_id: str
    span_id: str
    parent_id: str | None
    stage: str
    server: str | None = None
    start_ms: float = 0.0
    end_ms: float | None = None
    error: str | None = None
    attrs: dict = field(default_factory=dict)
    #: length of the tracer's finished-span list when this span opened
    mark: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def duration_ms(self) -> float:
        """Span length; zero while the span is still open."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def set(self, key: str, value) -> "Span":
        """Attach one wire-safe attribute; chainable."""
        self.attrs[key] = value
        return self

    # -- context manager -------------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None and self.error is None:
            self.error = f"{exc_type.__name__}: {exc}"
        tracer = self.__dict__.pop("_tracer", None)
        if tracer is not None:
            tracer._finish(self)
        return False

    # -- wire form -------------------------------------------------------------

    def as_dict(self) -> dict:
        """Wire-safe struct (survives the XML-RPC codec)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id or "",
            "stage": self.stage,
            "server": self.server or "",
            "start_ms": float(self.start_ms),
            "end_ms": float(self.end_ms if self.end_ms is not None else self.start_ms),
            "error": self.error or "",
            "attrs": dict(self.attrs),
        }

    @staticmethod
    def from_dict(data: dict) -> "Span":
        """Rebuild a span from its wire form."""
        return Span(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id") or None,
            stage=data["stage"],
            server=data.get("server") or None,
            start_ms=float(data.get("start_ms", 0.0)),
            end_ms=float(data.get("end_ms", 0.0)),
            error=data.get("error") or None,
            attrs=dict(data.get("attrs") or {}),
        )


@dataclass
class QueryRecord:
    """One row of the R-GMA-style ``monitor_queries`` table."""

    trace_id: str
    server: str
    sql: str
    distributed: bool
    row_count: int
    duration_ms: float
    servers: int
    status: str  # 'ok', 'partial' or 'error: <type>'
    #: simclock instant the query finished (the row's ``ts_ms``)
    end_ms: float = 0.0


class Tracer:
    """Deterministic span factory stamped from one server's SimClock."""

    def __init__(self, clock, server: str | None = None):
        self.clock = clock
        self.server = server
        #: finished spans, in finish order (includes imported remote spans)
        self.spans: list[Span] = []
        #: one record per query the owning service executed
        self.queries: list[QueryRecord] = []
        self.last_trace_id: str | None = None
        self._stack: list[Span] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # -- span lifecycle ---------------------------------------------------------

    @property
    def active(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def span(self, stage: str, parent: tuple[str, str] | None = None, **attrs) -> Span:
        """Open a child span of the innermost open span (a context manager).

        With no span open, the new span starts a trace, or joins the
        ``(trace_id, parent_id)`` of a forwarding server when ``parent``
        names one.
        """
        active = self.active
        if active is not None:
            parent = (active.trace_id, active.span_id)
        prefix = self.server or "local"
        trace_id, parent_id = parent or (f"{prefix}-t{next(self._trace_ids)}", None)
        span = Span(
            trace_id=trace_id,
            span_id=f"{prefix}-s{next(self._span_ids)}",
            parent_id=parent_id,
            stage=stage,
            server=self.server,
            start_ms=self.clock.now_ms,
            attrs=dict(attrs),
        )
        span.mark = len(self.spans)
        span.__dict__["_tracer"] = self
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end_ms = self.clock.now_ms
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # defensive; should not happen
            self._stack.remove(span)
        self.spans.append(span)
        if span.parent_id is None:
            self.last_trace_id = span.trace_id

    def record(self, stage: str, start_ms: float, end_ms: float, **attrs) -> Span | None:
        """Register an already-completed span (e.g. one network transfer).

        Only recorded while some span is open — an isolated transfer with
        no query in flight is not part of any trace.
        """
        parent = self.active
        if parent is None:
            return None
        span = Span(
            trace_id=parent.trace_id,
            span_id=f"{self.server or 'local'}-s{next(self._span_ids)}",
            parent_id=parent.span_id,
            stage=stage,
            server=self.server,
            start_ms=start_ms,
            end_ms=end_ms,
            attrs=dict(attrs),
        )
        self.spans.append(span)
        return span

    # -- cross-server propagation ----------------------------------------------

    def import_spans(self, dicts: list[dict]) -> list[Span]:
        """Merge spans a remote server returned into this tracer."""
        imported = [Span.from_dict(d) for d in dicts]
        self.spans.extend(imported)
        return imported

    # -- queries ----------------------------------------------------------------

    def trace_spans(self, root: Span) -> list[Span]:
        """Every span of ``root``'s trace finished since ``root`` opened."""
        return [s for s in self.spans[root.mark:] if s.trace_id == root.trace_id]

    def spans_for(self, trace_id: str) -> list[Span]:
        """Every finished span of one trace."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids, in first-seen order."""
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.trace_id)
        return list(seen)


def format_span_tree(spans: list[Span]) -> list[str]:
    """Render one trace's spans as an indented tree of text lines."""
    ids = {s.span_id for s in spans}
    children: dict[str | None, list[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: (s.start_ms, s.span_id))

    lines: list[str] = []

    def describe(span: Span) -> str:
        bits = [f"{span.stage} [{span.server or '?'}]"]
        bits.append(f"{span.start_ms:.1f}..{(span.end_ms or span.start_ms):.1f}")
        bits.append(f"({span.duration_ms:.1f} ms)")
        for key in sorted(span.attrs):
            value = span.attrs[key]
            if key == "sql":
                value = str(value)[:60]
            bits.append(f"{key}={value}")
        if span.error:
            bits.append(f"error={span.error}")
        return " ".join(bits)

    def walk(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(describe(span))
            child_prefix = ""
        else:
            lines.append(f"{prefix}{'└─ ' if is_last else '├─ '}{describe(span)}")
            child_prefix = prefix + ("   " if is_last else "│  ")
        kids = children.get(span.span_id, [])
        for i, kid in enumerate(kids):
            walk(kid, child_prefix, i == len(kids) - 1, False)

    roots = children.get(None, [])
    for i, root in enumerate(roots):
        walk(root, "", i == len(roots) - 1, True)
    return lines
