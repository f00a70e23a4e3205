"""Layer tracing from outside the program.

``LayerTracer.install()`` replaces each layer's public entry point, at
the module namespace its callers bind, with a wrapper that records one
in-memory span per call: layer name, real start/end (``perf_counter_ns``),
simulated start/end (the world's ``SimClock``), parent span, and the
simulated milliseconds charged while the span was the innermost open one.
``uninstall()`` puts every original back, so untraced runs execute the
program exactly as shipped.

Self time is a span's duration minus the time its child spans cover. The
benchmark loop opens one root span per op (layer ``op``); its self time is
the ``unattributed`` bucket, so the self times of every span in a phase
sum exactly to the traced end-to-end real time.

Simulated work is attributed by hooking ``SimClock.advance_ms``: each
advance is charged to the innermost open span. ``SimClock.run_parallel``
rewinds the clock between branches and then advances by the longest one;
that final join advance is not work and is kept apart, so a layer's
``sim_ms`` is the simulated work it charged, summed over branches.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

#: (module, attribute path, layer) — spans with real and simulated time
SPAN_TARGETS = (
    ("repro.core.service", "parse_select", "sql.parse"),
    ("repro.engine.database", "parse_statement", "sql.parse"),
    # callers that import inside a function (the ETL watermark re-parse)
    ("repro.sql.parser", "parse_select", "sql.parse"),
    ("repro.core.service", "decompose", "unity.decompose"),
    ("repro.core.service", "DataAccessService.execute", "core.service"),
    ("repro.unity.merge", "Integrator.integrate", "unity.merge"),
    ("repro.core.router", "SubQueryRouter.__call__", "core.route"),
    ("repro.core.router", "connect", "driver.connect"),
    ("repro.dialects.base", "Dialect.render_select", "dialects.render"),
    ("repro.engine.database", "Database.execute_statement", "engine.execute"),
    ("repro.clarens.codec", "encode_payload", "clarens.codec"),
    ("repro.clarens.codec", "decode_payload", "clarens.codec"),
    ("repro.net.network", "Network.transfer", "net.transfer"),
    ("repro.rls.client", "RLSClient.lookup", "rls.lookup"),
    ("repro.warehouse.etl", "ETLPipeline.run", "warehouse.etl"),
    ("repro.warehouse.etl", "ETLPipeline.run_incremental", "warehouse.etl"),
    ("repro.warehouse.etl", "StagingFile.write", "warehouse.staging"),
    ("repro.warehouse.etl", "StagingFile.read_all", "warehouse.staging"),
    ("repro.marts.materialize", "materialize_view", "marts.materialize"),
)

#: per-row helpers: counted only, because timing them would distort them
COUNT_TARGETS = (
    ("repro.engine.storage", "estimate_row_bytes", "engine.bytes_estimate"),
    ("repro.core.router", "estimate_row_bytes", "engine.bytes_estimate"),
    ("repro.cache.manager", "estimate_row_bytes", "engine.bytes_estimate"),
    ("repro.cache.remote", "estimate_row_bytes", "engine.bytes_estimate"),
    ("repro.unity.driver", "estimate_row_bytes", "engine.bytes_estimate"),
    ("repro.warehouse.etl", "estimate_row_bytes", "engine.bytes_estimate"),
    ("repro.hep.workload", "estimate_row_bytes", "engine.bytes_estimate"),
    ("repro.engine.storage", "TableStorage.insert", "engine.insert"),
)


class Span:
    """One wrapped call."""

    __slots__ = (
        "layer", "parent", "phase", "real_start_ns", "real_end_ns",
        "sim_start_ms", "sim_end_ms", "charged_sim_ms", "child_real_ns", "attrs",
    )

    def __init__(self, layer: str, parent: int, phase: str, real_start_ns: int,
                 sim_start_ms: float):
        self.layer = layer
        self.parent = parent
        self.phase = phase
        self.real_start_ns = real_start_ns
        self.real_end_ns = real_start_ns
        self.sim_start_ms = sim_start_ms
        self.sim_end_ms = sim_start_ms
        self.charged_sim_ms = 0.0
        self.child_real_ns = 0
        self.attrs = None

    @property
    def real_ns(self) -> int:
        return self.real_end_ns - self.real_start_ns

    @property
    def self_ns(self) -> int:
        return self.real_ns - self.child_real_ns

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "parent": self.parent,
            "layer": self.layer,
            "phase": self.phase,
            "real_start_ns": self.real_start_ns,
            "real_end_ns": self.real_end_ns,
            "sim_start_ms": self.sim_start_ms,
            "sim_end_ms": self.sim_end_ms,
            "charged_sim_ms": self.charged_sim_ms,
            "attrs": self.attrs,
        }


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for ``module:path``."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        #: phase -> call counts of the count-only targets
        self.counts: defaultdict[str, Counter] = defaultdict(Counter)
        #: tags every span opened (and call counted) from now on
        self.phase = "setup"
        #: the world's clock; read for each span's simulated start/end
        self.clock = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def open(self, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        sim = self.clock.now_ms if self.clock is not None else 0.0
        span = Span(layer, parent, self.phase, time.perf_counter_ns(), sim)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.real_end_ns = time.perf_counter_ns()
        if self.clock is not None:
            span.sim_end_ms = self.clock.now_ms
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_real_ns += span.real_ns

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            _annotate(span, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[tracer.phase][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _advance_hook(self, original, join_code):
        tracer = self

        @functools.wraps(original)
        def advance_ms(clock, ms):
            original(clock, ms)
            # run_parallel's closing advance joins branches; it is not work
            if tracer._stack and sys._getframe(1).f_code is not join_code:
                tracer.spans[tracer._stack[-1]].charged_sim_ms += ms

        return advance_ms

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        # import every target module before patching any: a module that
        # binds a name at import would otherwise bind a wrapper for good
        spans = [(_resolve(m, path), layer) for m, path, layer in SPAN_TARGETS]
        counts = [(_resolve(m, path), name) for m, path, name in COUNT_TARGETS]
        for (owner, attr), layer in spans:
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), layer))
        for (owner, attr), name in counts:
            self._patch(owner, attr, self._count_wrapper(getattr(owner, attr), name))
        from repro.net.simclock import SimClock

        self._patch(
            SimClock, "advance_ms",
            self._advance_hook(SimClock.advance_ms, SimClock.run_parallel.__code__),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path, header: dict) -> None:
        import json

        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"header": header}) + "\n")
            for i, span in enumerate(self.spans):
                out.write(json.dumps(span.as_dict(i)) + "\n")


def _annotate(span: Span, args: tuple, kwargs: dict, result) -> None:
    """Per-layer work counts, taken from the call's arguments or result."""
    layer = span.layer
    if layer == "net.transfer":
        span.attrs = {"bytes": args[3] if len(args) > 3 else kwargs["nbytes"]}
    elif layer == "clarens.codec":
        text = result if isinstance(result, str) else args[0]
        span.attrs = {"bytes": len(text)}
    elif layer == "unity.merge":
        sub_results = args[2] if len(args) > 2 else kwargs["sub_results"]
        span.attrs = {"rows": sum(len(r[2]) for r in sub_results.values())}
    elif layer == "engine.execute":
        stats = getattr(result, "stats", None)
        if stats is not None:
            span.attrs = {"examined": stats.rows_examined, "returned": len(result.rows)}
    elif layer == "warehouse.etl":
        span.attrs = {
            "extract_sim_ms": result.extraction_ms,
            "load_sim_ms": result.loading_ms,
            "rows": result.rows,
        }
