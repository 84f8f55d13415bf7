"""Pin the set of ``repro`` modules no entry point imports.

The reachable set is the static import closure of the product's entry
points: every ``import``/``from ... import`` in a reached module counts,
function-local ones included (``cli.py`` imports per subcommand), and
``if TYPE_CHECKING:`` blocks do not.  A name imported from a package is
resolved through the package's ``lazy_exports`` table to the module that
defines it, so ``from repro.analytics import global_squares`` reaches
``repro.analytics.fourcycles`` and nothing else in the package.

A module outside that set must be listed in :data:`KEPT_UNREACHED` with
the paper row, bench or example that keeps it.  The test fails, naming
the module, when a module becomes unreached without being listed, when a
listed module becomes reachable, or when a listed module is gone.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ENTRY_POINTS = (
    "repro.cli",
    "repro.__main__",
    "repro.serve.prefork",
    "repro.serve.http",
    "repro.refcheck.differ",
    "repro.obs.__main__",
)

#: Modules no entry point reaches, each with what keeps it.
KEPT_UNREACHED = {
    "repro.analytics.clustering_coeffs": "paper row Def. 10; bench_generator_comparison",
    "repro.analytics.sampling": "paper row §I approximation; examples/validate_butterfly_counter.py",
    "repro.analytics.tip": "paper row Rem. 1 discussion",
    "repro.analytics.triangles": "paper row §I prior work (the direct triangle counter)",
    "repro.analytics.truss": "paper row Rem. 1 discussion",
    "repro.experiments.robustness": "bench_seed_sensitivity",
    "repro.experiments.scaling": "paper row §I cost model; bench_thm6_clustering_law, bench_generation",
    "repro.generators.bter": "paper row §I R-MAT / BTER contrast; examples/community_preservation.py",
    "repro.kronecker.connectivity": "paper rows Weichsel (§III-A) and Thm. 1; examples/quickstart.py",
    "repro.kronecker.regions": "paper row §III-B remark: triangle-free regions",
    "repro.kronecker.sampling": "paper row §I closing: sampled counts; bench_oracle_queries",
    "repro.kronecker.spectral": "paper row §I prior work (eigenvalue formulas)",
    "repro.kronecker.triangles": "paper row §I prior work (triangle formulas)",
    "repro.validation": "paper row §I validation use case; examples/design_and_validate.py",
}


def _modules() -> dict[str, Path]:
    """Every ``repro`` module, by dotted name."""
    found = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def _is_type_checking_block(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)


def _runtime_nodes(tree: ast.AST):
    """``ast.walk`` that skips ``if TYPE_CHECKING:`` bodies."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if _is_type_checking_block(node):
            todo.extend(node.orelse)
        else:
            todo.extend(ast.iter_child_nodes(node))


class _Graph:
    def __init__(self):
        self.modules = _modules()
        self.trees = {
            name: ast.parse(path.read_text(encoding="utf-8")) for name, path in self.modules.items()
        }
        self.tables = {name: self._lazy_table(name) for name in self.modules}

    def _package(self, name: str) -> str:
        is_pkg = self.modules[name].name == "__init__.py"
        return name if is_pkg else name.rpartition(".")[0]

    def _lazy_table(self, name: str) -> dict[str, str]:
        """``{public name: defining module}`` of a package's ``lazy_exports``."""
        for node in ast.walk(self.trees[name]):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
                table = node.args[1]
                if isinstance(table, ast.Call):
                    # dict.fromkeys(other.__all__, "other"): an alias of a whole package
                    target = importlib.util.resolve_name(table.args[1].value, name)
                    return dict.fromkeys(self._lazy_table(target), target)
                return {
                    k.value: importlib.util.resolve_name(v.value, name)
                    for k, v in zip(table.keys, table.values)
                }
        return {}

    def resolve(self, module: str, attr: str) -> str:
        """The module that ``from module import attr`` ends up loading."""
        if f"{module}.{attr}" in self.modules:
            return f"{module}.{attr}"
        target = self.tables.get(module, {}).get(attr)
        if target is None or target == module:
            return module
        return self.resolve(target, attr)

    def imports(self, name: str) -> set[str]:
        out: set[str] = set()
        for node in _runtime_nodes(self.trees[name]):
            if isinstance(node, ast.Import):
                out.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    base = importlib.util.resolve_name(
                        "." * node.level + base, self._package(name)
                    )
                out.add(base)
                for alias in node.names:
                    if alias.name == "*":
                        out.update(self.resolve(base, n) for n in self.tables.get(base, {}))
                    else:
                        out.add(self.resolve(base, alias.name))
        return {m for m in out if m in self.modules}

    def reachable(self, roots) -> set[str]:
        seen: set[str] = set()
        todo = list(roots)
        while todo:
            name = todo.pop()
            # importing a.b.c runs a and a.b first
            parts = name.split(".")
            chain = [".".join(parts[: i + 1]) for i in range(len(parts))]
            for module in chain:
                if module in self.modules and module not in seen:
                    seen.add(module)
                    todo.extend(self.imports(module))
        return seen


def test_unreached_modules_are_exactly_the_kept_ones():
    graph = _Graph()
    assert [m for m in ENTRY_POINTS if m not in graph.modules] == []
    unreached = set(graph.modules) - graph.reachable(ENTRY_POINTS)
    newly_unreached = sorted(unreached - set(KEPT_UNREACHED))
    assert not newly_unreached, (
        f"no entry point imports {newly_unreached}: delete them, or list them in "
        "KEPT_UNREACHED with the paper row, bench or example that keeps them"
    )
    gone = sorted(set(KEPT_UNREACHED) - set(graph.modules))
    assert not gone, f"KEPT_UNREACHED lists modules that no longer exist: {gone}"
    now_reached = sorted(set(KEPT_UNREACHED) - unreached)
    assert not now_reached, f"an entry point now imports {now_reached}: drop them from KEPT_UNREACHED"


def test_lazy_names_resolve_to_their_defining_module():
    graph = _Graph()
    assert graph.resolve("repro", "Graph") == "repro.graphs.graph"
    assert graph.resolve("repro.analytics", "global_squares") == "repro.analytics.fourcycles"
    assert graph.resolve("repro.kronecker", "oracle") == "repro.kronecker.oracle"


#: Scripts tier-1 never runs (the benches run in CI's smoke job, the
#: examples in their own tests at best); their ``repro`` imports are
#: checked here without running them.
SCRIPTS = sorted(
    path.relative_to(ROOT).as_posix()
    for pattern in ("benchmarks/*.py", "benchmarks/e2e/*.py", "examples/*.py")
    for path in ROOT.glob(pattern)
)


def _repro_imports(tree: ast.AST):
    """``(module, name)`` for every ``repro`` import in ``tree``;
    ``name`` is None for a plain ``import repro.x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    if alias.name != "*":
                        yield node.module, alias.name


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_imports_resolve(script):
    """Every ``import repro...`` and ``from repro... import name`` in the
    script names a module or attribute that exists; the script itself is
    only parsed."""
    tree = ast.parse((ROOT / script).read_text(encoding="utf-8"))
    missing = []
    for module, name in _repro_imports(tree):
        if importlib.util.find_spec(module) is None:
            missing.append(module)
        elif name is not None and not hasattr(importlib.import_module(module), name) and (
            importlib.util.find_spec(f"{module}.{name}") is None
        ):
            missing.append(f"{module}.{name}")
    assert not missing, f"{script} imports names that do not exist: {missing}"
