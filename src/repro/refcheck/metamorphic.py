"""Metamorphic relations over the ground-truth formula layer.

Differential testing (``differ.py``) needs a referee; metamorphic
testing needs none.  Each relation here transforms the *input* in a way
whose effect on the *output* is known a priori — relabeling permutes
counts, factor order transposes the grid, deleting a factor edge can
only lose product 4-cycles, per-vertex/per-edge counts must tile the
global count — so a violation indicts the formulas without any second
implementation in the loop.  The relations run both inside the
``repro verify`` engine and as a Hypothesis fleet in
``tests/refcheck/test_metamorphic.py``.

All checks raise :class:`MetamorphicViolation` with a locating message;
they return silently on success.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.kronecker.assumptions import Assumption, BipartiteKronecker, make_bipartite_product
from repro.kronecker.ground_truth import (
    FactorStats,
    edge_squares_product,
    global_squares_product,
    vertex_squares_product,
)
from repro.kronecker.multifactor import KroneckerChain
from repro.refcheck.printed import global_squares_from_stats

__all__ = [
    "MetamorphicViolation",
    "check_relabel_invariance",
    "check_factor_swap_vertex_symmetry",
    "check_edge_deletion_monotonicity",
    "check_vertex_sum_consistency",
    "check_edge_sum_consistency",
]


class MetamorphicViolation(AssertionError):
    """A metamorphic relation failed; the message locates the breakage."""


def _product_permutation(perm_a: np.ndarray, perm_b: np.ndarray) -> np.ndarray:
    """The product relabeling induced by factor relabelings:
    ``γ(i, k) -> γ(perm_a[i], perm_b[k])``."""
    perm_a = np.asarray(perm_a, dtype=np.int64)
    perm_b = np.asarray(perm_b, dtype=np.int64)
    return (perm_a[:, None] * perm_b.size + perm_b[None, :]).ravel()


def check_relabel_invariance(
    A: Graph,
    B: Graph,
    assumption: Assumption,
    perm_a: np.ndarray,
    perm_b: np.ndarray,
) -> None:
    """Relabeling factors must permute — never change — the counts.

    For ``A' = A.relabel(perm_a)``, ``B' = B.relabel(perm_b)`` the
    product counts must satisfy ``s_{C'}(γ(perm_a[i], perm_b[k])) =
    s_C(γ(i, k))``, and likewise for every per-edge ``◇`` value.
    """
    bk = make_bipartite_product(A, B, assumption, require_connected=False)
    bk_rel = make_bipartite_product(
        A.relabel(perm_a), B.relabel(perm_b), assumption, require_connected=False
    )
    perm_c = _product_permutation(perm_a, perm_b)

    s = vertex_squares_product(bk)
    s_rel = vertex_squares_product(bk_rel)
    if not np.array_equal(s_rel[perm_c], s):
        bad = int(np.flatnonzero(s_rel[perm_c] != s)[0])
        raise MetamorphicViolation(
            f"vertex relabeling invariance: s mismatch at product vertex {bad} "
            f"({int(s[bad])} vs relabeled {int(s_rel[perm_c[bad]])})"
        )

    dia = edge_squares_product(bk).toarray()
    dia_rel = edge_squares_product(bk_rel).toarray()
    moved_back = dia_rel[np.ix_(perm_c, perm_c)]
    if not np.array_equal(moved_back, dia):
        p, q = (int(x[0]) for x in np.nonzero(moved_back != dia))
        raise MetamorphicViolation(
            f"edge relabeling invariance: ◇ mismatch at product edge ({p}, {q}) "
            f"({int(dia[p, q])} vs relabeled {int(moved_back[p, q])})"
        )


def check_factor_swap_vertex_symmetry(A: Graph, B: Graph) -> None:
    """Thm. 3's vertex grid must be symmetric under factor swap:
    ``s_{A⊗B}(γ(i, k)) = s_{B⊗A}(γ(k, i))``.

    Evaluated on the chains ``[A, B]`` and ``[B, A]`` (no Assumption-1
    parity validation), because swapping the factors of a valid 1(i)
    pair yields a pair the product *constructor* would reject even
    though the closed form still holds.
    """
    every = np.arange(A.n * B.n, dtype=np.int64)
    ab = KroneckerChain.from_graphs([A, B]).vertex_squares(every).reshape(A.n, B.n)
    ba = KroneckerChain.from_graphs([B, A]).vertex_squares(every).reshape(B.n, A.n)
    if not np.array_equal(ab, ba.T):
        i, k = (int(x[0]) for x in np.nonzero(ab != ba.T))
        raise MetamorphicViolation(
            f"factor swap symmetry: s_(A⊗B)(γ({i},{k})) = {int(ab[i, k])} but "
            f"s_(B⊗A)(γ({k},{i})) = {int(ba[k, i])}"
        )


def check_edge_deletion_monotonicity(
    A: Graph, B: Graph, assumption: Assumption
) -> None:
    """Deleting any edge of ``B`` shrinks the product, so the global
    butterfly count must be non-increasing — for every edge of ``B``.

    ``A ⊗ (B − e)`` is a subgraph of ``A ⊗ B``; counts are evaluated
    at the statistics level (:func:`~repro.refcheck.printed.global_squares_from_stats`)
    because ``B − e`` may be disconnected.
    """
    stats_a = FactorStats.from_graph(A)
    base = global_squares_from_stats(stats_a, FactorStats.from_graph(B), assumption)
    u_arr, v_arr = B.edge_arrays()
    for u, v in zip(u_arr.tolist(), v_arr.tolist()):
        kept = [(a, b) for a, b in zip(u_arr.tolist(), v_arr.tolist()) if (a, b) != (u, v)]
        reduced = global_squares_from_stats(
            stats_a, FactorStats.from_graph(Graph.from_edges(B.n, kept)), assumption
        )
        if reduced > base:
            raise MetamorphicViolation(
                f"edge-deletion monotonicity: removing B edge ({u}, {v}) raised the "
                f"global count {base} -> {reduced}"
            )


def check_vertex_sum_consistency(bk: BipartiteKronecker) -> None:
    """Every 4-cycle passes through exactly 4 vertices, so
    ``Σ_p s_C(p) = 4 · #squares(C)``."""
    s_sum = int(vertex_squares_product(bk).sum())
    total = global_squares_product(bk)
    if s_sum != 4 * total:
        raise MetamorphicViolation(
            f"vertex sum consistency: Σ s = {s_sum} but 4 x global = {4 * total}"
        )


def check_edge_sum_consistency(bk: BipartiteKronecker) -> None:
    """Every 4-cycle contains exactly 4 undirected edges, so the sum of
    ``◇`` over the symmetric stored entries is ``8 · #squares(C)``."""
    dia_sum = int(edge_squares_product(bk).sum())
    total = global_squares_product(bk)
    if dia_sum != 8 * total:
        raise MetamorphicViolation(
            f"edge sum consistency: Σ ◇ over stored entries = {dia_sum} "
            f"but 8 x global = {8 * total}"
        )
