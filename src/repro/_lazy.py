"""Lazy package re-exports (PEP 562), shared by every ``repro`` package.

A package ``__init__`` declares one table mapping each public name to
the module that defines it; the module is imported the first time the
name is looked up.  Importing a package therefore costs only the
modules its caller touches -- ``repro serve`` boots without the
generation, referee and experiment stacks -- while
``__all__``, ``from pkg import name``, ``from pkg import *`` and
``dir(pkg)`` behave as with eager imports.

Usage, at the end of a package ``__init__``::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "Graph": ".graph",          # relative to the package
        "BipartiteGraph": ".bipartite",
    })

A public name that equals its own submodule's name (``graphs.degeneracy``
is both a module and a function in it) must be imported eagerly by the
package: the import system rebinds the package attribute to the module
the first time that submodule is imported, which a lookup hook cannot
undo.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, table: dict[str, str]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package`` over ``table``.

    ``table`` maps each public name to its defining module, absolute or
    relative to ``package``, in ``__all__`` order.  A resolved name is
    cached on the package, so later lookups are plain attribute reads.
    Names outside the table resolve to submodules (``pkg.kernels``), as
    if the package had imported them.
    """
    module = sys.modules[package]

    def __getattr__(name: str) -> Any:
        source = table.get(name)
        if source is not None:
            value = getattr(importlib.import_module(source, package), name)
            setattr(module, name, value)
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    submodules = {source[1:] for source in table.values() if source.startswith(".")}

    def __dir__() -> list[str]:
        return sorted(set(vars(module)) | set(table) | submodules)

    return list(table), __getattr__, __dir__
