"""Smoke tests: every example script must run cleanly end to end.

Each script runs as ``python examples/<name>.py`` in a fresh interpreter
with ``PYTHONPATH=src``, the way its docstring says to run it, so its
``__main__`` block and its exit status are checked too.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES_DIR = ROOT / "examples"
EXAMPLE_NAMES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_example_runs(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / f"{name}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, f"example {name} failed:\n{result.stderr}"
    assert result.stdout.strip(), f"example {name} produced no output"


def test_expected_examples_present():
    assert {
        "quickstart",
        "hep_analysis",
        "grid_federation",
        "schema_evolution",
        "schema_matching",
        "operations",
    } <= set(EXAMPLE_NAMES)
