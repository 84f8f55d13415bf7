"""Smoke tests: the shipped example scripts must run to completion.

Each example's ``main()`` is imported and executed in-process (no
subprocess overhead) with stdout captured.  The heavyweight examples
(multi-million-edge streaming, 38k-vertex eccentricities) are exercised
at reduced scale by their own unit/bench coverage and skipped here
unless ``REPRO_RUN_SLOW_EXAMPLES=1``.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "wing_peeling.py",
    "community_preservation.py",
]
SLOW_EXAMPLES = [
    "validate_butterfly_counter.py",
    "massive_stream.py",
    "distance_ground_truth.py",
    "design_and_validate.py",
]


def _run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{name[:-3]}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name, capsys):
    out = _run_example(name, capsys)
    assert len(out) > 100  # produced a real narrative
    assert "Traceback" not in out
    assert "MISMATCH" not in out


@pytest.mark.parametrize("name", SLOW_EXAMPLES)
@pytest.mark.skipif(
    not os.environ.get("REPRO_RUN_SLOW_EXAMPLES"),
    reason="set REPRO_RUN_SLOW_EXAMPLES=1 to run the heavyweight examples",
)
def test_slow_example_runs(name, capsys):
    out = _run_example(name, capsys)
    assert "MISMATCH" not in out


def test_example_inventory_documented():
    """Every shipped example is either in the fast or slow list."""
    shipped = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert shipped == set(FAST_EXAMPLES) | set(SLOW_EXAMPLES)
