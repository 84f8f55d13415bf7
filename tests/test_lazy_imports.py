"""Lazy package re-exports: what ``repro serve`` loads, and that the
public surface of every package is unchanged."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

PACKAGES = [
    "repro",
    "repro.analytics",
    "repro.experiments",
    "repro.generators",
    "repro.graphs",
    "repro.kronecker",
    "repro.obs",
    "repro.parallel",
    "repro.refcheck",
    "repro.serve",
    "repro.utils",
]

#: Modules the serving stack never runs; the boot must not import them.
#: A loaded oracle reads CSR triples, so the graph model, the analytics
#: counters and scipy stay out too.
NOT_SERVED = (
    "repro.generators",
    "repro.graphs",
    "repro.analytics",
    "repro.parallel.generate",
    "repro.refcheck",
    "repro.experiments",
    "repro.validation",
    "scipy",
)


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_serve_boot_loads_only_the_serving_stack():
    loaded = _run(
        "import json, sys\n"
        "import repro.cli, repro.serve.prefork\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('repro', 'scipy')))))\n"
    )
    assert "repro.serve.prefork" in loaded and "repro.kronecker.oracle" in loaded
    unwanted = [m for m in loaded if m.startswith(NOT_SERVED)]
    assert not unwanted, unwanted


def test_answering_every_kind_imports_nothing_new(tmp_path):
    """Everything a query needs is imported before the workers fork, and
    no query imports scipy."""
    art = tmp_path / "art"
    subprocess.run(
        [sys.executable, "-m", "repro", "pack", "complete:3", "biclique:2x3", "-o", str(art)],
        env=ENV,
        capture_output=True,
        check=True,
        timeout=120,
    )
    new = _run(
        "import json, sys\n"
        "import repro.cli, repro.serve.prefork\n"
        "from repro.serve.artifact import load_oracle\n"
        "from repro.serve.service import OracleService\n"
        f"svc = OracleService(load_oracle({str(art)!r}, mmap=True))\n"
        "before = set(sys.modules)\n"
        "for kind in ('degree', 'vertex_squares'):\n"
        "    svc.answer(kind, [0, 1])\n"
        "for kind in ('edge_squares', 'clustering', 'wings'):\n"
        "    svc.answer(kind, [0, 1], [7, 8])\n"
        "svc.answer('global')\n"
        "svc.oracle.max_wing_bound()\n"
        "new = set(sys.modules) - before\n"
        "scipy = [m for m in sys.modules if m.startswith('scipy')]\n"
        "print(json.dumps(sorted(m for m in new if m.startswith('repro')) + scipy))\n"
    )
    assert new == []


def test_shadowed_names_stay_functions_after_their_submodules_import():
    """``graphs.degeneracy``, ``generators.rmat`` and
    ``analytics.projection`` name both a submodule and a function in it;
    importing the submodule must not rebind the package attribute."""
    kinds = _run(
        "import json\n"
        "import repro.graphs.degeneracy, repro.generators.rmat, repro.analytics.projection\n"
        "from repro.graphs import degeneracy\n"
        "from repro.generators import rmat\n"
        "from repro.analytics import projection\n"
        "print(json.dumps([type(f).__name__ for f in (degeneracy, rmat, projection)]))\n"
    )
    assert kinds == ["function"] * 3


@pytest.mark.parametrize("name", PACKAGES)
def test_public_names_resolve_and_are_listed(name):
    pkg = importlib.import_module(name)
    listed = dir(pkg)
    missing = [n for n in pkg.__all__ if n not in listed]
    assert not missing, missing
    for public in pkg.__all__:
        assert getattr(pkg, public) is not None, public
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(pkg, "no_such_name")


def test_kronecker_star_import_exports_its_surface():
    import repro.kronecker as kronecker

    namespace: dict = {}
    exec("from repro.kronecker import *", namespace)
    assert {n: namespace[n] for n in kronecker.__all__} == {
        n: getattr(kronecker, n) for n in kronecker.__all__
    }
