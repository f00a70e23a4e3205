"""Benchmark harness helpers.

Every bench reproduces one table or figure of the paper. Two kinds of
numbers come out of each:

* **simulated milliseconds/seconds** — the paper-comparable quantity,
  deterministic, computed on the virtual clock; printed as a
  paper-vs-measured table and written to ``benchmarks/results/``;
* **real time** — what pytest-benchmark measures: the actual CPU cost
  of the middleware code under test on this machine.

Run with ``pytest benchmarks/ --benchmark-only``. Without the
pytest-benchmark plugin (not installed, or ``-p no:benchmark``) every
bench still runs: a stand-in ``benchmark`` fixture calls the measured
function once and returns its result, so the simulated-time numbers
and their assertions are the same.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


class _BenchmarkFallback:
    """Provides ``benchmark`` when the pytest-benchmark plugin is off."""

    @pytest.fixture
    def benchmark(self):
        def run(fn, *args, **kwargs):
            return fn(*args, **kwargs)

        return run


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_BenchmarkFallback(), "benchmark-fallback")


def write_report(name: str, title: str, lines: list[str]) -> pathlib.Path:
    """Persist a human-readable experiment report and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    text = "\n".join([title, "=" * len(title), *lines, ""])
    path.write_text(text)
    print("\n" + text)
    return path


def fmt_row(cells, widths) -> str:
    return " | ".join(str(c).rjust(w) for c, w in zip(cells, widths))
