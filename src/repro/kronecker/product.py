"""Kronecker product graphs: materialized and implicit.

:func:`kron_graph` materializes ``C = A ⊗ B`` as a
:class:`~repro.graphs.graph.Graph` via scipy's compiled kernel --
appropriate up to a few tens of millions of edges.

:class:`KroneckerProduct` is the *implicit* handle: it stores only the
factors and answers structural queries (degree, adjacency, neighbour
lists) through the index algebra, in O(factor) memory.  This is the
object the oracle and the streaming generator build on; the paper's
massive-scale use case ("validate algorithms on massive graphs"
without materializing, §I) is exactly this split.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.kronecker.indexing import ProductIndexMap
from repro.utils.validation import check_positive

__all__ = ["kron_graph", "kron_power", "KroneckerProduct"]


def kron_graph(A: Graph, B: Graph) -> Graph:
    """Materialize the Kronecker product graph ``G_C``, ``C = A ⊗ B``."""
    import scipy.sparse as sp

    return Graph(sp.kron(A.adj, B.adj, format="csr"))


def kron_power(A: Graph, k: int) -> Graph:
    """Materialize the k-fold power ``A ⊗ A ⊗ ... ⊗ A`` (k factors).

    The iterated form of Def. 4 used by the Graph500-lineage
    generators; ``k = 1`` returns ``A`` itself.
    """
    import scipy.sparse as sp

    k = check_positive(k, "k")
    out = A.adj
    for _ in range(k - 1):
        out = sp.kron(out, A.adj, format="csr")
    return Graph(out)


class KroneckerProduct:
    """Implicit ``C = A ⊗ B``: structural queries without materializing.

    All queries run off the factors' CSR arrays; memory cost is
    ``O(|E_A| + |E_B|)`` regardless of ``|E_C|``.
    """

    __slots__ = ("A", "B", "index")

    def __init__(self, A: Graph, B: Graph):
        self.A = A
        self.B = B
        self.index = ProductIndexMap(A.n, B.n)

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of product vertices ``n_A * n_B``."""
        return self.index.n_product

    @property
    def nnz(self) -> int:
        """Stored nonzeros of ``C``: ``nnz(A) * nnz(B)``."""
        return self.A.nnz * self.B.nnz

    @property
    def num_self_loops(self) -> int:
        """Self loops of ``C``: product of the factors' loop counts."""
        return self.A.num_self_loops * self.B.num_self_loops

    @property
    def m(self) -> int:
        """Undirected edge count of ``C`` (loops counted once)."""
        loops = self.num_self_loops
        return (self.nnz - loops) // 2 + loops

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    def degree(self, p) -> np.ndarray:
        """Degree of product vertex/vertices ``p``: ``d_i * d_k``."""
        i, k = self.index.split(p)
        return self.A.degrees()[i] * self.B.degrees()[k]

    def degrees(self) -> np.ndarray:
        """Full product degree vector ``d_A ⊗ d_B`` (dense, length n)."""
        return np.kron(self.A.degrees(), self.B.degrees())

    def has_edge(self, p: int, q: int) -> bool:
        """Edge test via the entry identity ``C_pq = A_ij * B_kl``."""
        i, k = self.index.split(p)
        j, ell = self.index.split(q)
        return self.A.has_edge(int(i), int(j)) and self.B.has_edge(int(k), int(ell))

    def neighbors(self, p: int) -> np.ndarray:
        """Sorted neighbour list of product vertex ``p``.

        ``N_C(γ(i,k)) = { γ(j, l) : j ∈ N_A(i), l ∈ N_B(k) }`` -- an
        outer sum of the two factor neighbour lists.
        """
        i, k = self.index.split(p)
        na = self.A.neighbors(int(i))
        nb = self.B.neighbors(int(k))
        return (na[:, None] * self.B.n + nb[None, :]).ravel()

    def materialize(self) -> Graph:
        """Materialize to a concrete :class:`Graph` (scipy kron)."""
        return kron_graph(self.A, self.B)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KroneckerProduct(n={self.n}, m={self.m})"
