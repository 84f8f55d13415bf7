"""Ground-truth triangle counts for Kronecker products (prior work [3], [12]).

The bipartite theory rests on the general-product triangle formulas of
Sanders et al. [12] / Steil et al. [3]: for loop-free undirected
factors,

    diag(C³) = diag(A³) ⊗ diag(B³)      =>    t_C = ½ (2t_A) ⊗ (2t_B) = 2 t_A ⊗ t_B

and per edge ``Δ_C = (C² ∘ C) = (A² ∘ A) ⊗ (B² ∘ B) = Δ_A ⊗ Δ_B``.

Two uses here:

* the general formulas themselves (this library also generates
  non-bipartite products via
  :meth:`~repro.kronecker.multifactor.KroneckerChain.materialize`);
* the bipartite sanity theorem: any product with a bipartite factor has
  ``t_C = 0`` identically -- which the formulas reproduce because the
  bipartite factor's ``diag(B³)`` vanishes.  Tests pin both.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.analytics.triangles import edge_triangles, vertex_triangles
from repro.graphs.graph import Graph

__all__ = [
    "product_vertex_triangles",
    "product_edge_triangles",
    "product_global_triangles",
]


def _require_loop_free(A: Graph, B: Graph) -> None:
    if A.has_self_loops or B.has_self_loops:
        raise ValueError(
            "triangle product formulas assume loop-free factors; with self "
            "loops the expansion gains cross terms (see [3], [12])"
        )


def product_vertex_triangles(A: Graph, B: Graph) -> np.ndarray:
    """Triangles at every vertex of ``C = A ⊗ B``: ``t_C = 2 t_A ⊗ t_B``.

    Derivation: ``diag(C³) = diag(A³) ⊗ diag(B³)`` (mixed product +
    diag-Kronecker distributivity), and ``diag(X³) = 2 t_X`` for
    loop-free ``X``.
    """
    _require_loop_free(A, B)
    return 2 * np.kron(vertex_triangles(A), vertex_triangles(B))


def product_edge_triangles(A: Graph, B: Graph) -> sp.csr_array:
    """Triangles at every edge of ``C``: ``Δ_C = Δ_A ⊗ Δ_B``."""
    _require_loop_free(A, B)
    return sp.csr_array(sp.kron(edge_triangles(A), edge_triangles(B), format="csr"))


def product_global_triangles(A: Graph, B: Graph) -> int:
    """Total triangles of ``C``: ``Σ t_C / 3 = 2 (Σt_A)(Σt_B) / 3``."""
    total = 2 * int(vertex_triangles(A).sum()) * int(vertex_triangles(B).sum())
    count, rem = divmod(total, 3)
    assert rem == 0, "vertex triangle sums are multiples of 3"
    return count
