"""Immutable undirected graph over a canonical CSR adjacency matrix.

Design
------
A :class:`Graph` is a thin, validated wrapper around a *binary,
symmetric* ``scipy.sparse.csr_array``.  The paper works exclusively with
``B = {0, 1}`` adjacency matrices (Def. in §II), so values are coerced
to int64 ones and duplicates collapse, in one numpy pass that builds the
``csr_array`` once.  Self loops are permitted -- they are load-bearing in
this paper (Assumption 1(ii) adds ``I_A``) -- and tracked explicitly.

The class is immutable by convention: every "mutating" operation
(adding self loops, taking subgraphs, relabelling) returns a new
``Graph``, which keeps the Kronecker layer free of aliasing bugs and
lets the CSR arrays be shared safely across threads/processes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["Graph"]


def _canonical_csr(n: int, rows, cols, values=None, wide: bool = False) -> sp.csr_array:
    """The binary symmetric ``n × n`` CSR adjacency of coordinate entries:
    sorted by ``(row, col)`` key, duplicates summed, zero sums dropped and
    the rest int64 ones, with int64 indices if ``wide`` or too many."""
    if n * n >= 1 << 63:
        raise ValueError(f"{n} vertices overflow the int64 (row, col) entry keys")
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    keys = rows * n + cols
    index = np.int64 if wide or max(keys.size, n) > np.iinfo(np.int32).max else np.int32
    if not np.all(keys[1:] > keys[:-1]):  # else sorted and unique already
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        keys = keys[starts]
        rows, cols = np.divmod(keys, n)
        if values is not None:
            values = np.add.reduceat(values[order], starts)
    if values is not None:
        nonzero = values != 0
        keys, rows, cols = keys[nonzero], rows[nonzero], cols[nonzero]
    if not np.array_equal(np.sort(cols * n + rows), keys):
        raise ValueError("adjacency must be symmetric (undirected graph)")
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    data = np.ones(keys.size, dtype=np.int64)  # indices copied: never the caller's array
    return sp.csr_array((data, cols.astype(index), indptr), shape=(n, n))


class Graph:
    """An undirected graph with 0-based vertices ``0..n-1``.

    Parameters
    ----------
    adjacency:
        A square symmetric matrix (scipy sparse or dense array).
        Nonzeros become edges.
    """

    __slots__ = ("adj",)

    def __init__(self, adjacency):
        if sp.issparse(adjacency):
            csr = adjacency if adjacency.format == "csr" else sp.csr_array(adjacency)
            shape, cols, values = csr.shape, csr.indices, csr.data
            rows = np.repeat(np.arange(shape[0]), np.diff(csr.indptr))
        else:
            arr = np.asarray(adjacency)
            if arr.ndim != 2:
                raise ValueError(f"adjacency must be 2-D, got shape {arr.shape}")
            (rows, cols), shape, values = np.nonzero(arr), arr.shape, None
        if shape[0] != shape[1]:
            raise ValueError(f"adjacency must be square, got shape {shape}")
        wide = values is not None and cols.dtype == np.int64  # as scipy keeps them
        self.adj = _canonical_csr(shape[0], rows, cols, values, wide)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        """Build from an iterable of ``(u, v)`` pairs (symmetrized)."""
        edges = np.asarray(list(edges), dtype=np.int64)
        if edges.size == 0:
            return cls.empty(n)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must be (m, 2) pairs, got shape {edges.shape}")
        return cls.from_edge_arrays(n, edges[:, 0], edges[:, 1])

    @classmethod
    def from_edge_arrays(cls, n: int, u: np.ndarray, v: np.ndarray) -> "Graph":
        """Build from parallel endpoint arrays (symmetrized)."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError("endpoint arrays must have equal length")
        if u.size == 0:
            return cls.empty(n)
        if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
            raise ValueError("edge endpoint out of range")
        graph = cls.__new__(cls)
        graph.adj = _canonical_csr(n, np.concatenate((u, v)), np.concatenate((v, u)), wide=True)
        return graph

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """A graph with ``n`` vertices and no edges."""
        return cls(sp.csr_array((n, n), dtype=np.int64))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices (the paper's ``n_A``)."""
        return int(self.adj.shape[0])

    @property
    def nnz(self) -> int:
        """Stored nonzeros of the adjacency (directed edge slots)."""
        return int(self.adj.nnz)

    @property
    def num_self_loops(self) -> int:
        return int(np.count_nonzero(self.adj.diagonal()))

    @property
    def m(self) -> int:
        """Number of undirected edges; each self loop counts once."""
        loops = self.num_self_loops
        return (self.nnz - loops) // 2 + loops

    @property
    def has_self_loops(self) -> bool:
        return self.num_self_loops > 0

    @property
    def has_all_self_loops(self) -> bool:
        """True iff every vertex carries a self loop (``D_A = I_A``)."""
        return self.num_self_loops == self.n

    def degrees(self) -> np.ndarray:
        """Degree vector ``d = A·1`` (self loops contribute 1)."""
        return np.asarray(self.adj.sum(axis=1)).ravel().astype(np.int64)

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbour array of vertex ``i``."""
        if not 0 <= i < self.n:
            raise IndexError(f"vertex {i} out of range [0, {self.n})")
        return self.adj.indices[self.adj.indptr[i] : self.adj.indptr[i + 1]].astype(np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return bool(pos < row.size and row[pos] == v)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(u, v)`` arrays with ``u <= v`` (each edge once)."""
        coo = self.adj.tocoo()
        keep = coo.row <= coo.col
        return coo.row[keep].astype(np.int64), coo.col[keep].astype(np.int64)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges as ``(u, v)`` with ``u <= v``."""
        u, v = self.edge_arrays()
        return zip(u.tolist(), v.tolist())

    # ------------------------------------------------------------------
    # Views / conversions
    # ------------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        return self.adj.toarray()

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def with_all_self_loops(self) -> "Graph":
        """Return ``A + I_A`` (idempotent on existing loops)."""
        eye = sp.identity(self.n, dtype=np.int64, format="csr")
        return Graph(self.adj + eye)

    def without_self_loops(self) -> "Graph":
        """Return ``A - A ∘ I`` (loop removal, §II-B)."""
        csr = self.adj.copy().tolil()
        csr.setdiag(0)
        return Graph(sp.csr_array(csr))

    def subgraph(self, vertices) -> "Graph":
        """Induced subgraph on the given (relabelled 0..k-1) vertices."""
        vertices = np.asarray(vertices, dtype=np.int64)
        return Graph(self.adj[vertices, :][:, vertices])

    def relabel(self, permutation) -> "Graph":
        """Return the graph with vertex ``i`` renamed ``permutation[i]``.

        ``permutation`` must be a permutation of ``0..n-1``; the result
        ``G'`` satisfies ``G'.has_edge(perm[u], perm[v]) == G.has_edge(u, v)``.
        """
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.shape != (self.n,) or not np.array_equal(np.sort(perm), np.arange(self.n)):
            raise ValueError("permutation must be a permutation of 0..n-1")
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(self.n)
        return Graph(self.adj[inverse, :][:, inverse])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.n != other.n:
            return False
        diff = self.adj - other.adj
        return diff.nnz == 0 or not np.any(diff.data)

    def __hash__(self):  # pragma: no cover - graphs as dict keys unused
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m}, self_loops={self.num_self_loops})"
