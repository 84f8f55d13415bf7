"""One-mode (bipartite) projections and their Kronecker structure.

The weighted one-mode projection of a bipartite graph onto its ``U``
part is the codegree matrix ``P_U = X Xᵀ`` (off-diagonal: shared
neighbours per pair, the "number of wedges" weight; diagonal: degrees).
Projections are the workhorse of applied bipartite analysis
(co-authorship, co-purchase, term co-occurrence), and they compose with
the Kronecker product:

    C = M ⊗ B  (B bipartite)  =>  P_{U_C} = M² ⊗ P_{U_B}

because ``C² = M² ⊗ B²`` (mixed product) and the ``U``-side block of
``B²`` *is* ``P_{U_B}`` -- so projections of massive products have
exact ground truth too, computed from factor-sized pieces.  The same
holds on the ``W`` side.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

# scipy is imported by the functions, so the package import (which binds
# ``projection``) stays free of it.
if TYPE_CHECKING:  # pragma: no cover
    import scipy.sparse as sp

    from repro.graphs.bipartite import BipartiteGraph
    from repro.kronecker.assumptions import BipartiteKronecker

__all__ = ["projection", "product_projection"]


def projection(bg: BipartiteGraph, side: str = "U", keep_diagonal: bool = False) -> sp.csr_array:
    """Weighted one-mode projection onto the chosen side.

    Entry ``(a, b)`` counts the common neighbours of same-side vertices
    ``a`` and ``b`` (local ids within the side, ordered as
    ``bg.U`` / ``bg.W``).  ``keep_diagonal=True`` retains the degree
    diagonal (the raw ``X Xᵀ``); the default drops it, which is the
    graph-flavoured projection.
    """
    if side not in ("U", "W"):
        raise ValueError(f"side must be 'U' or 'W', got {side!r}")
    import scipy.sparse as sp

    X = bg.biadjacency()
    if side == "W":
        X = sp.csr_array(X.T)
    P = sp.csr_array(X @ X.T)
    if not keep_diagonal:
        P = P.tolil()
        P.setdiag(0)
        P = sp.csr_array(P)
        P.eliminate_zeros()
    return P


def product_projection(bk: BipartiteKronecker, side: str = "U", keep_diagonal: bool = False) -> sp.csr_array:
    """Ground-truth projection of the product: ``M² ⊗ P_{side}(B)``.

    Exact and factor-sized in its inputs -- ``M²`` and the factor
    projection are both small; only the output (the projected product)
    is large.  Row/column ordering matches
    ``projection(bk.materialize_bipartite(), side)`` -- i.e. product
    side-vertices sorted by global id, which under the
    ``p = i·n_B + k`` layout is exactly the Kronecker order of
    ``(i, k-within-side)`` pairs.  Verified against direct projection
    of materialized products in the tests.
    """
    if side not in ("U", "W"):
        raise ValueError(f"side must be 'U' or 'W', got {side!r}")
    import scipy.sparse as sp

    M2 = sp.csr_array(bk.M.adj @ bk.M.adj)
    P_b = projection(bk.B, side, keep_diagonal=True)
    out = sp.csr_array(sp.kron(M2, P_b, format="csr"))
    if not keep_diagonal:
        out = out.tolil()
        out.setdiag(0)
        out = sp.csr_array(out)
        out.eliminate_zeros()
    return out
