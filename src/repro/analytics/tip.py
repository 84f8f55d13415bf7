"""k-tip (vertex-wing) decomposition of bipartite graphs.

Sarıyüce-Pinar's "Peeling bipartite networks for dense subgraph
discovery" [4] -- the paper's reference for bipartite truss analogues --
defines two peeling hierarchies: the edge-based *k-wing*
(:mod:`repro.analytics.peel`) and the vertex-based *k-tip*: the
``k``-tip is the maximal subgraph in which every vertex of the primary
side participates in at least ``k`` butterflies.  The *tip number* of a
vertex is the largest ``k`` whose ``k``-tip contains it.

Peeling removes only primary-side vertices, so pairwise codegrees among
the remaining primary vertices never change -- removing ``u`` deletes
exactly ``C(codeg(u, u'), 2)`` butterflies from each surviving ``u'``.
That makes the static codegree matrix the whole data structure: one
sparse product up front, then a lazy min-heap peel.
"""

from __future__ import annotations

import heapq

import numpy as np
import scipy.sparse as sp

from repro.graphs.bipartite import BipartiteGraph

__all__ = ["tip_decomposition", "tip_number_max"]


def tip_decomposition(bg: BipartiteGraph, side: str = "U") -> dict[int, int]:
    """Tip numbers of every vertex on the chosen side.

    Parameters
    ----------
    bg:
        The bipartite graph.
    side:
        ``"U"`` or ``"W"`` -- which part is peeled (the other part's
        vertices are never removed and carry no tip number).

    Returns
    -------
    dict mapping each ``side``-vertex (global id) to its tip number
    (0 for vertices in no butterfly).
    """
    if side not in ("U", "W"):
        raise ValueError(f"side must be 'U' or 'W', got {side!r}")
    X = bg.biadjacency()
    ids = bg.U if side == "U" else bg.W
    if side == "W":
        X = sp.csr_array(X.T)
    n = X.shape[0]
    if n == 0:
        return {}
    # Static codegree matrix among primary vertices (diagonal removed).
    C = sp.csr_array(X @ X.T).tolil()
    C.setdiag(0)
    C = sp.csr_array(C)
    # Butterfly contribution of each stored codegree: C(w, 2).
    contrib = C.copy()
    w = contrib.data.astype(np.int64)
    contrib.data = w * (w - 1) // 2
    counts = np.asarray(contrib.sum(axis=1)).ravel().astype(np.int64)

    heap = [(int(c), v) for v, c in enumerate(counts)]
    heapq.heapify(heap)
    removed = np.zeros(n, dtype=bool)
    tip = np.zeros(n, dtype=np.int64)
    k = 0
    indptr, indices, data = contrib.indptr, contrib.indices, contrib.data
    for _ in range(n):
        while True:
            c, v = heapq.heappop(heap)
            if not removed[v] and c == counts[v]:
                break
        k = max(k, int(c))
        tip[v] = k
        removed[v] = True
        # Deleting v removes C(codeg(v, u'), 2) butterflies from each
        # surviving neighbour-in-codegree u'.
        for u, loss in zip(indices[indptr[v] : indptr[v + 1]], data[indptr[v] : indptr[v + 1]]):
            if not removed[u] and loss:
                counts[u] -= int(loss)
                heapq.heappush(heap, (int(counts[u]), int(u)))
    return {int(ids[v]): int(tip[v]) for v in range(n)}


def tip_number_max(bg: BipartiteGraph, side: str = "U") -> int:
    """The largest tip number on the chosen side (0 if butterfly-free)."""
    tips = tip_decomposition(bg, side)
    return max(tips.values(), default=0)
