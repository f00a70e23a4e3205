"""Every binding perfbench's tracer patches exists.

``perfbench/tracing.py`` names each layer entry point it wraps by module
and attribute path (``SPAN_TARGETS``, ``COUNT_TARGETS``) and resolves
them only when a traced run installs the tracer. Resolving each one here
makes a rename or deletion of a patched binding (``TableStorage.insert``,
``Dialect.render_select``) fail in seconds, not only in a traced run.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module, path",
    [(module, path) for module, path, _ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS],
    ids=lambda value: value,
)
def test_target_resolves_to_a_callable(module, path):
    owner, attr = tracing._resolve(module, path)
    assert callable(getattr(owner, attr, None)), f"{module}:{path} is gone"
