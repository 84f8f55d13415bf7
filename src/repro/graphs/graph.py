"""Immutable undirected graph over a canonical CSR pattern.

Design
------
A :class:`Graph` is ``n`` plus the ``indptr``/``indices`` arrays of a
*binary, symmetric* CSR adjacency, sorted within each row.  The paper
works exclusively with ``B = {0, 1}`` adjacency matrices (Def. in §II),
so duplicates collapse and values become ones, in one numpy pass.  Self
loops are permitted -- they are load-bearing in this paper (Assumption
1(ii) adds ``I_A``) -- and counted when the pattern is built.

Everything that reads the pattern alone (degrees, neighbours, edges,
traversals, chain factors, and the derived graphs, which remap entry
keys) reads those arrays, so building graphs and generating from them
never imports scipy.  :attr:`Graph.adj`, the same
pattern as a ``scipy.sparse.csr_array`` of int64 ones for the algebraic
callers, is built on first read and cached.

The class is immutable by convention: every "mutating" operation
(adding self loops, taking subgraphs, relabelling) returns a new
``Graph``, which keeps the Kronecker layer free of aliasing bugs and
lets the CSR arrays be shared safely across threads/processes.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator, Tuple

import numpy as np

__all__ = ["Graph"]


def _canonical_csr(n: int, rows, cols, values=None):
    """``(indptr, indices, self_loops)`` of the binary symmetric ``n × n``
    CSR adjacency of coordinate entries: sorted by ``(row, col)`` key,
    duplicates summed and zero sums dropped, with int64 indices."""
    if n * n >= 1 << 63:
        raise ValueError(f"{n} vertices overflow the int64 (row, col) entry keys")
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    keys = rows * n + cols
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
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    # indices copied: never the caller's array
    return indptr, cols.copy(), int(np.count_nonzero(rows == cols))


class Graph:
    """An undirected graph with 0-based vertices ``0..n-1``.

    Parameters
    ----------
    adjacency:
        A square symmetric matrix (scipy sparse or dense array).
        Nonzeros become edges.
    """

    __slots__ = ("n", "indptr", "indices", "num_self_loops", "_adj")

    #: Number of vertices (the paper's ``n_A``).
    n: int
    #: CSR row pointers of the canonical pattern.
    indptr: np.ndarray
    #: CSR column indices, sorted within each row.
    indices: np.ndarray
    #: Stored diagonal entries.
    num_self_loops: int

    def __init__(self, adjacency):
        sparse = sys.modules.get("scipy.sparse")  # no sparse input unless scipy is loaded
        if sparse is not None and sparse.issparse(adjacency):
            csr = adjacency if adjacency.format == "csr" else sparse.csr_array(adjacency)
            shape, cols, values = csr.shape, csr.indices, csr.data
            rows = np.repeat(np.arange(shape[0]), np.diff(csr.indptr))
        else:
            arr = np.asarray(adjacency)
            if arr.ndim != 2:
                raise ValueError(f"adjacency must be 2-D, got shape {arr.shape}")
            (rows, cols), shape, values = np.nonzero(arr), arr.shape, None
        if shape[0] != shape[1]:
            raise ValueError(f"adjacency must be square, got shape {shape}")
        self._init(shape[0], rows, cols, values)

    def _init(self, n: int, rows, cols, values=None) -> "Graph":
        """Set this graph to the canonical pattern of coordinate entries
        (:func:`_canonical_csr`); returns it."""
        self.n = int(n)
        self.indptr, self.indices, self.num_self_loops = _canonical_csr(n, rows, cols, values)
        self._adj = None
        return self

    @property
    def adj(self):
        """The pattern as a ``scipy.sparse.csr_array`` of int64 ones over
        :attr:`indptr`/:attr:`indices`, built on first read and cached."""
        if self._adj is None:
            import scipy.sparse as sp

            data = np.ones(self.indices.size, dtype=np.int64)
            self._adj = sp.csr_array((data, self.indices, self.indptr), shape=(self.n, self.n))
        return self._adj

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
        return cls.__new__(cls)._init(n, np.concatenate((u, v)), np.concatenate((v, u)))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """A graph with ``n`` vertices and no edges."""
        none = np.zeros(0, dtype=np.int64)
        return cls.__new__(cls)._init(n, none, none)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Stored nonzeros of the adjacency (directed edge slots)."""
        return int(self.indices.size)

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
        return np.diff(self.indptr).astype(np.int64)

    def entry_rows(self) -> np.ndarray:
        """Row of every stored entry, in CSR order (int64)."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbour array of vertex ``i``."""
        if not 0 <= i < self.n:
            raise IndexError(f"vertex {i} out of range [0, {self.n})")
        return self.indices[self.indptr[i] : self.indptr[i + 1]].astype(np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return bool(pos < row.size and row[pos] == v)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(u, v)`` arrays with ``u <= v`` (each edge once)."""
        rows = self.entry_rows()
        keep = rows <= self.indices
        return rows[keep], self.indices[keep].astype(np.int64)

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
        diagonal = np.arange(self.n, dtype=np.int64)
        rows = np.concatenate((self.entry_rows(), diagonal))
        cols = np.concatenate((self.indices, diagonal))
        return Graph.__new__(Graph)._init(self.n, rows, cols)

    def without_self_loops(self) -> "Graph":
        """Return ``A - A ∘ I`` (loop removal, §II-B)."""
        rows = self.entry_rows()
        off = rows != self.indices
        return Graph.__new__(Graph)._init(self.n, rows[off], self.indices[off])

    def subgraph(self, vertices) -> "Graph":
        """Induced subgraph on the given (relabelled 0..k-1) vertices."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and not (0 <= vertices.min() and vertices.max() < self.n):
            raise IndexError(f"subgraph vertex out of range [0, {self.n})")
        if np.unique(vertices).size != vertices.size:
            raise ValueError("subgraph vertices must be distinct")
        position = np.full(self.n, -1, dtype=np.int64)
        position[vertices] = np.arange(vertices.size)
        rows, cols = position[self.entry_rows()], position[self.indices]
        keep = (rows >= 0) & (cols >= 0)
        return Graph.__new__(Graph)._init(vertices.size, rows[keep], cols[keep])

    def relabel(self, permutation) -> "Graph":
        """Return the graph with vertex ``i`` renamed ``permutation[i]``.

        ``permutation`` must be a permutation of ``0..n-1``; the result
        ``G'`` satisfies ``G'.has_edge(perm[u], perm[v]) == G.has_edge(u, v)``.
        """
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.shape != (self.n,) or not np.array_equal(np.sort(perm), np.arange(self.n)):
            raise ValueError("permutation must be a permutation of 0..n-1")
        return Graph.__new__(Graph)._init(self.n, perm[self.entry_rows()], perm[self.indices])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self):  # pragma: no cover - graphs as dict keys unused
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m}, self_loops={self.num_self_loops})"
