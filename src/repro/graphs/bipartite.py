"""Bipartiteness detection and the :class:`BipartiteGraph` container.

The paper's Def. 7: a graph is bipartite iff its vertices split into
parts ``U ∪ W`` with no intra-part edges, equivalently iff it has no
odd-length cycle.  :func:`bipartition` implements BFS two-colouring and,
on failure, returns an explicit odd-cycle certificate (the pair of
same-colour endpoints plus their BFS paths) so callers -- and tests --
can verify the negative answer instead of trusting it.

Self loops are odd cycles of length 1: a graph with any self loop is not
bipartite.  This matters because Assumption 1(ii) deliberately
constructs the *non*-bipartite factor ``A + I_A`` from a bipartite
``A``; the library keeps those two objects distinct.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph

if TYPE_CHECKING:  # pragma: no cover
    import scipy.sparse as sp

__all__ = ["bipartition", "is_bipartite", "BipartiteGraph", "OddCycleCertificate"]


@dataclass(frozen=True)
class OddCycleCertificate:
    """Witness that a graph is not bipartite.

    ``edge`` is a monochromatic edge under the attempted 2-colouring and
    ``cycle`` the odd closed walk it induces (as a vertex list with
    ``cycle[0] == cycle[-1]``), built from the two BFS tree paths.
    """

    edge: Tuple[int, int]
    cycle: Tuple[int, ...]

    def length(self) -> int:
        return len(self.cycle) - 1


def bipartition(graph: Graph):
    """Two-colour ``graph``; return ``(colors, certificate)``.

    Returns
    -------
    colors:
        An int8 array of 0/1 colours when the graph is bipartite,
        otherwise ``None``.  Isolated vertices get colour 0.  For
        disconnected graphs each component is coloured independently
        with the BFS root taking colour 0.
    certificate:
        ``None`` when bipartite, else an :class:`OddCycleCertificate`.
    """
    n = graph.n
    indptr, indices = graph.indptr, graph.indices
    # A self loop is an odd cycle of length 1.
    if graph.has_self_loops:
        rows = graph.entry_rows()
        v = int(rows[rows == indices][0])
        return None, OddCycleCertificate(edge=(v, v), cycle=(v, v))
    colors = np.full(n, -1, dtype=np.int8)
    parent = np.full(n, -1, dtype=np.int64)
    for root in range(n):
        if colors[root] != -1:
            continue
        colors[root] = 0
        frontier = np.array([root], dtype=np.int64)
        while frontier.size:
            # Vectorised frontier expansion over CSR rows.
            counts = indptr[frontier + 1] - indptr[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            starts = np.repeat(indptr[frontier], counts)
            offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
            neigh = indices[starts + offsets]
            src = np.repeat(frontier, counts)
            # Conflict: neighbour already carries the same colour.
            same = colors[neigh] == colors[src]
            if np.any(same):
                k = int(np.flatnonzero(same)[0])
                u, v = int(src[k]), int(neigh[k])
                cycle = _odd_cycle_from_conflict(u, v, parent)
                return None, OddCycleCertificate(edge=(u, v), cycle=cycle)
            fresh_mask = colors[neigh] == -1
            fresh = neigh[fresh_mask]
            fresh_src = src[fresh_mask]
            if fresh.size:
                # A vertex may appear several times in this wave; keep first.
                uniq, first = np.unique(fresh, return_index=True)
                colors[uniq] = 1 - colors[fresh_src[first]]
                parent[uniq] = fresh_src[first]
                frontier = uniq
            else:
                frontier = np.empty(0, dtype=np.int64)
    return colors, None


def _odd_cycle_from_conflict(u: int, v: int, parent: np.ndarray) -> Tuple[int, ...]:
    """Construct an odd closed walk from a monochromatic edge ``(u, v)``.

    Walk both endpoints up the BFS forest to their lowest common
    ancestor; the two paths plus the edge form an odd cycle.
    """
    path_u = [u]
    while parent[path_u[-1]] != -1:
        path_u.append(int(parent[path_u[-1]]))
    path_v = [v]
    while parent[path_v[-1]] != -1:
        path_v.append(int(parent[path_v[-1]]))
    set_u = {x: i for i, x in enumerate(path_u)}
    lca_idx_v = next(i for i, x in enumerate(path_v) if x in set_u)
    lca = path_v[lca_idx_v]
    up = path_u[: set_u[lca] + 1]          # u .. lca
    down = path_v[:lca_idx_v][::-1]        # (lca-exclusive) .. v reversed
    cycle = up + down + [u]
    return tuple(cycle)


def is_bipartite(graph: Graph) -> bool:
    """True iff ``graph`` has no odd cycle (Def. 7)."""
    colors, _ = bipartition(graph)
    return colors is not None


class BipartiteGraph:
    """A bipartite graph with an explicit part assignment ``(U, W)``.

    The paper orders ``U`` before ``W`` so the adjacency is block
    anti-diagonal with biadjacency ``X`` (Def. 7).  This class does not
    require that ordering -- it stores the part *mask* -- but provides
    :meth:`canonical` to produce the paper's layout, and
    :meth:`biadjacency` for the ``|U| x |W|`` block.
    """

    __slots__ = ("graph", "part")

    def __init__(self, graph: Graph, part: Optional[np.ndarray] = None):
        """Wrap ``graph``; infer the bipartition unless ``part`` given.

        ``part`` is a boolean/0-1 array: False/0 marks ``U`` and
        True/1 marks ``W``.  When provided it is validated against the
        edges.
        """
        if part is None:
            colors, cert = bipartition(graph)
            if colors is None:
                raise ValueError(
                    f"graph is not bipartite: odd cycle of length {cert.length()} at edge {cert.edge}"
                )
            part = colors.astype(bool)
        else:
            part = np.asarray(part, dtype=bool)
            if part.shape != (graph.n,):
                raise ValueError(f"part must have shape ({graph.n},), got {part.shape}")
            u, v = graph.edge_arrays()
            if np.any(part[u] == part[v]):
                bad = int(np.flatnonzero(part[u] == part[v])[0])
                raise ValueError(
                    f"part assignment violated by edge ({int(u[bad])}, {int(v[bad])})"
                )
        self.graph = graph
        self.part = part

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_biadjacency(cls, X) -> "BipartiteGraph":
        """Build from the ``|U| x |W|`` biadjacency block ``X`` (Def. 7).

        Vertices ``0..|U|-1`` are part ``U`` and ``|U|..|U|+|W|-1`` are
        part ``W`` (the paper's canonical ordering).
        """
        sparse = sys.modules.get("scipy.sparse")  # no sparse input unless scipy is loaded
        if sparse is not None and sparse.issparse(X):
            X = sparse.csr_array(X)
            rows = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
            return cls._from_block_entries(
                *X.shape, rows, X.indices, X.data, wide=X.indices.dtype == np.int64
            )
        X = np.asarray(X)
        if X.ndim != 2:
            raise ValueError(f"biadjacency must be 2-D, got shape {X.shape}")
        return cls._from_block_entries(*X.shape, *np.nonzero(X))

    @classmethod
    def _from_block_entries(
        cls, nu: int, nw: int, rows, cols, values=None, wide: bool = False
    ) -> "BipartiteGraph":
        """The graph of the block anti-diagonal ``[[0, X], [Xᵀ, 0]]`` for
        the ``nu × nw`` biadjacency ``X`` given by coordinate entries
        (summed and binarized as :class:`Graph` does)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64) + nu
        if values is not None:
            values = np.concatenate((values, values))
        graph = Graph.__new__(Graph)._init(
            nu + nw, np.concatenate((rows, cols)), np.concatenate((cols, rows)), values, wide
        )
        part = np.zeros(nu + nw, dtype=bool)
        part[nu:] = True
        return cls(graph, part)

    # ------------------------------------------------------------------
    # Parts and blocks
    # ------------------------------------------------------------------

    @property
    def U(self) -> np.ndarray:
        """Indices of the first part (paper's ``U_A``)."""
        return np.flatnonzero(~self.part).astype(np.int64)

    @property
    def W(self) -> np.ndarray:
        """Indices of the second part (paper's ``W_A``)."""
        return np.flatnonzero(self.part).astype(np.int64)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def biadjacency(self) -> sp.csr_array:
        """The ``|U| x |W|`` block ``X`` of the canonical ordering."""
        import scipy.sparse as sp

        return sp.csr_array(self.graph.adj[self.U, :][:, self.W])

    def canonical(self) -> Tuple["BipartiteGraph", np.ndarray]:
        """Reorder vertices so all of ``U`` precedes all of ``W``.

        Returns the reordered graph and the permutation ``perm`` with
        ``perm[old] = new``.
        """
        order = np.concatenate((self.U, self.W))
        perm = np.empty(self.n, dtype=np.int64)
        perm[order] = np.arange(self.n)
        g = self.graph.relabel(perm)
        part = np.zeros(self.n, dtype=bool)
        part[self.U.size :] = True
        return BipartiteGraph(g, part), perm

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BipartiteGraph(|U|={self.U.size}, |W|={self.W.size}, m={self.m})"
