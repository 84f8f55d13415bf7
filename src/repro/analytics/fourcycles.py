"""Direct 4-cycle (square) counting on arbitrary loop-free graphs.

One counter per role; the test suite cross-checks both against the
brute-force referee :mod:`repro.refcheck.brute` and against the
Kronecker ground-truth formulas:

* :func:`vertex_squares_matrix` / :func:`edge_squares_matrix` /
  :func:`global_squares` -- the fast counter: the closed-walk
  identities of the paper's Figs. 2 and 4 (Defs. 8, 9) evaluated with
  sparse linear algebra:

  - ``s = (diag(A^4) - d∘d - w2 + d) / 2``
  - ``◇ = A^3 ∘ A - (d·1ᵗ + 1·dᵗ) ∘ A + A``

  On a bipartite graph 4-cycles are butterflies, so these count
  butterflies too (read ``edge_squares_matrix``'s ``U x W`` block for
  per-edge counts on the biadjacency).
* :func:`vertex_squares_bfs` -- the paper's §I "simple algorithm":
  from each vertex run a 2-hop shortened BFS and combine the
  second-neighbourhood multiplicities; O(|V||E|)-style, no matrix
  product materialized.  The §IV cost baseline.

All validate the loop-free precondition the paper imposes (§II-B):
the identities are wrong in the presence of self loops.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph

__all__ = [
    "vertex_squares_matrix",
    "vertex_squares_bfs",
    "edge_squares_matrix",
    "global_squares",
]


def _require_loop_free(graph: Graph) -> None:
    if graph.has_self_loops:
        raise ValueError(
            "square-counting identities assume a loop-free adjacency "
            "(paper Defs. 8-9); call Graph.without_self_loops() first"
        )


# ---------------------------------------------------------------------------
# Matrix identities (Defs. 8 and 9 / Figs. 2 and 4)
# ---------------------------------------------------------------------------


def closed_walks4(graph: Graph) -> np.ndarray:
    """``diag(A^4)`` without forming ``A^4``: row-sums of ``(A²)∘(A²)``."""
    A = graph.adj
    A2 = sp.csr_array(A @ A)
    return np.asarray(A2.multiply(A2).sum(axis=1)).ravel().astype(np.int64)


def vertex_squares_matrix(graph: Graph) -> np.ndarray:
    """Def. 8: ``s = (diag(A^4) - d∘d - w^(2) + d) / 2``."""
    _require_loop_free(graph)
    d = graph.degrees()
    w2 = np.asarray(graph.adj @ d).ravel().astype(np.int64)
    cw4 = closed_walks4(graph)
    twice = cw4 - d * d - w2 + d
    half, rem = np.divmod(twice, 2)
    assert not rem.any(), "vertex square counts must be integral"
    return half


def edge_squares_matrix(graph: Graph) -> sp.csr_array:
    """Def. 9: ``◇ = A³∘A - (d·1ᵗ + 1·dᵗ)∘A + A`` (sparse, symmetric).

    Point-wise on each edge (Fig. 4): ``◇_ij = W³(i,j) - d_i - d_j + 1``.
    Entries exist for every edge of the graph, including explicit zeros
    for edges on no square (so the pattern equals the adjacency).
    """
    _require_loop_free(graph)
    A = graph.adj
    d = graph.degrees().astype(np.int64)
    A2 = sp.csr_array(A @ A)
    walk3 = sp.csr_array(A2 @ A)
    coo = A.tocoo()
    if coo.nnz == 0:
        return sp.csr_array(A.shape, dtype=np.int64)
    # Evaluate W3 at every edge by direct lookup so square-free edges
    # survive as explicit zeros (the pattern must equal the adjacency).
    w3_at_edges = np.asarray(walk3[coo.row, coo.col]).ravel().astype(np.int64)
    values = w3_at_edges - d[coo.row] - d[coo.col] + 1
    out = sp.csr_array(sp.coo_array((values, (coo.row, coo.col)), shape=A.shape))
    return out


def global_squares(graph: Graph) -> int:
    """Total number of 4-cycles: ``Σ_i s_i / 4``."""
    s = vertex_squares_matrix(graph)
    total, rem = divmod(int(s.sum()), 4)
    assert rem == 0, "sum of vertex square counts must be divisible by 4"
    return total


# ---------------------------------------------------------------------------
# The paper's shortened-BFS algorithm (§I)
# ---------------------------------------------------------------------------


def vertex_squares_bfs(graph: Graph) -> np.ndarray:
    """Per-vertex square counts by 2-hop neighbourhood multiplicity.

    For each root ``i``: gather the concatenated adjacency lists of
    ``N(i)``, drop occurrences of ``i`` itself, histogram the remaining
    targets -- the multiplicity of ``j`` is the number of length-2 walks
    ``i → a → j`` -- and sum ``C(mult, 2)``.  This is the "shortened
    breadth-first-search from each vertex into the second neighborhood"
    of §I, with cost ``O(Σ_i Σ_{a∈N(i)} d_a)``; it never materializes
    ``A²``.
    """
    _require_loop_free(graph)
    indptr, indices = graph.indptr, graph.indices
    n = graph.n
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        nbrs = indices[indptr[i] : indptr[i + 1]]
        if nbrs.size == 0:
            continue
        starts = indptr[nbrs]
        stops = indptr[nbrs + 1]
        total = int((stops - starts).sum())
        if total == 0:
            continue
        gather = np.repeat(starts, stops - starts) + (
            np.arange(total) - np.repeat(np.cumsum(stops - starts) - (stops - starts), stops - starts)
        )
        targets = indices[gather]
        targets = targets[targets != i]
        if targets.size == 0:
            continue
        uniq, mult = np.unique(targets, return_counts=True)
        out[i] = int((mult * (mult - 1) // 2).sum())
    return out
