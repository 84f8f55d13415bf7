"""Factor design: search for factors hitting target product statistics.

The paper's positioning (§I, §V): non-stochastic Kronecker generators
are "appropriate for validation of algorithms and generation of graphs
with certain properties at different scales", and "researchers can use
these generators and formulas to validate their novel algorithms".
That workflow needs an inverse tool: *given* a target product scale and
square budget, find factors that land near it.

Because every candidate product is scored with the **sublinear**
formulas (never materialized), the search evaluates thousands of factor
pairs per second.  The search space is a library of parameterised
factor families (classic graphs + seeded scale-free factors); the cost
of a candidate is a weighted relative error against the requested
targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.generators.classic import (
    complete_bipartite,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.generators.scale_free import scale_free_bipartite_factor
from repro.graphs.bipartite import BipartiteGraph
from repro.kronecker.assumptions import Assumption, BipartiteKronecker
from repro.kronecker.multifactor import KroneckerChain

__all__ = ["DesignTarget", "DesignCandidate", "design_product", "default_factor_library"]


@dataclass(frozen=True)
class DesignTarget:
    """What the designed product should look like.

    Any field may be ``None`` (unconstrained).  Relative errors of the
    constrained fields are combined with the given weights.
    """

    n_vertices: Optional[int] = None
    n_edges: Optional[int] = None
    global_squares: Optional[int] = None
    weight_vertices: float = 1.0
    weight_edges: float = 1.0
    weight_squares: float = 1.0


@dataclass(frozen=True)
class DesignCandidate:
    """A scored factor pair."""

    label_a: str
    label_b: str
    bk: BipartiteKronecker
    n_vertices: int
    n_edges: int
    global_squares: int
    score: float

    def format(self) -> str:
        return (
            f"{self.label_a} (x) {self.label_b}: n={self.n_vertices:,} "
            f"m={self.n_edges:,} squares={self.global_squares:,} "
            f"(score {self.score:.4f})"
        )


def default_factor_library(max_size: int = 24, seed: int = 0) -> List[tuple[str, BipartiteGraph]]:
    """A modest library of connected bipartite factors.

    Classic families (paths, even cycles-as-grids, stars, bicliques,
    grids) plus a few seeded scale-free factors; all loop-free,
    connected and bipartite, i.e. valid Assumption-1(ii) inputs.
    """
    library: List[tuple[str, BipartiteGraph]] = []
    for n in range(2, max_size + 1, 2):
        library.append((f"path:{n}", BipartiteGraph(path_graph(n))))
    for k in range(2, max_size // 2):
        library.append((f"star:{k}", BipartiteGraph(star_graph(k))))
    for m in range(2, 6):
        for n in range(m, 7):
            if m * n <= max_size * 2:
                library.append((f"biclique:{m}x{n}", complete_bipartite(m, n)))
    for r in range(2, 5):
        for c in range(r, 6):
            if r * c <= max_size:
                library.append((f"grid:{r}x{c}", BipartiteGraph(grid_graph(r, c))))
    rng = np.random.default_rng(seed)
    for i in range(4):
        nu = int(rng.integers(4, max_size // 2))
        nw = int(rng.integers(4, max_size // 2))
        library.append(
            (f"sf:{nu}x{nw}#{i}", scale_free_bipartite_factor(nu, nw, 2, seed=int(rng.integers(1 << 30))))
        )
    return library


def _score(bk: BipartiteKronecker, target: DesignTarget) -> tuple[int, int, int, float]:
    """Sublinear evaluation of one candidate."""
    n = bk.n
    m = bk.m
    squares = KroneckerChain.from_bipartite(bk).global_squares()
    score = 0.0
    if target.n_vertices:
        score += target.weight_vertices * abs(np.log((n + 1) / (target.n_vertices + 1)))
    if target.n_edges:
        score += target.weight_edges * abs(np.log((m + 1) / (target.n_edges + 1)))
    if target.global_squares:
        score += target.weight_squares * abs(
            np.log((squares + 1) / (target.global_squares + 1))
        )
    return n, m, squares, float(score)


def design_product(
    target: DesignTarget,
    library: Optional[Sequence[tuple[str, BipartiteGraph]]] = None,
    top_k: int = 5,
) -> List[DesignCandidate]:
    """Search factor pairs for the best Assumption-1(ii) products.

    Exhaustive over ordered pairs from ``library`` (default:
    :func:`default_factor_library`); every candidate is scored with the
    sublinear formulas.  Returns the ``top_k`` candidates, best first.
    Log-relative errors make the score scale-free, so "within 2x on
    every axis" beats "exact on one axis, 100x off on another".
    """
    if top_k <= 0:
        raise ValueError(f"top_k must be positive, got {top_k}")
    lib = list(library) if library is not None else default_factor_library()
    if not lib:
        raise ValueError("factor library is empty")
    candidates: List[DesignCandidate] = []
    for label_a, fa in lib:
        for label_b, fb in lib:
            bk = BipartiteKronecker(
                fa.graph, fb, Assumption.SELF_LOOPS_FACTOR, A_bipartite=fa
            )
            n, m, squares, score = _score(bk, target)
            candidates.append(
                DesignCandidate(
                    label_a=label_a,
                    label_b=label_b,
                    bk=bk,
                    n_vertices=n,
                    n_edges=m,
                    global_squares=squares,
                    score=score,
                )
            )
    candidates.sort(key=lambda c: c.score)
    return candidates[:top_k]
