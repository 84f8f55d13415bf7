"""k-core decomposition and degeneracy.

The paper cites (§I) the best 4-cycle detection bound
``O(E * δ(G))`` where ``δ(G)`` is the *degeneracy* -- the largest ``k``
such that some subgraph has minimum degree ``k``.

Implementation: the classical Matula-Beck bucket peeling in O(n + m),
with numpy bucket bookkeeping (no heap).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graphs.graph import Graph

__all__ = ["core_decomposition", "degeneracy", "degeneracy_ordering"]


def core_decomposition(graph: Graph) -> np.ndarray:
    """Core number of every vertex.

    ``core[v]`` is the largest ``k`` such that ``v`` belongs to a
    subgraph of minimum degree ``k``.  Self loops are ignored (a loop
    does not witness cohesion).
    """
    g = graph.without_self_loops() if graph.has_self_loops else graph
    n = g.n
    if n == 0:
        return np.empty(0, dtype=np.int64)
    degrees = g.degrees().copy()
    indptr, indices = g.adj.indptr, g.adj.indices
    max_deg = int(degrees.max()) if n else 0
    # Bucket sort vertices by degree: pos[v] is v's slot in vert,
    # bin_start[d] the first slot of degree-d vertices.
    bin_count = np.bincount(degrees, minlength=max_deg + 1)
    bin_start = np.concatenate(([0], np.cumsum(bin_count)))[:-1].copy()
    order = np.argsort(degrees, kind="stable").astype(np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    vert = order.copy()
    core = degrees.copy()
    cur_bin_start = bin_start.copy()
    for idx in range(n):
        v = vert[idx]
        core[v] = degrees[v]
        # Peel v: decrement neighbours of higher current degree.
        for u in indices[indptr[v] : indptr[v + 1]]:
            if degrees[u] > degrees[v]:
                du = degrees[u]
                pu = pos[u]
                # Swap u with the first vertex of its bucket, then
                # shrink the bucket boundary -- O(1) decrement.
                pw = cur_bin_start[du]
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                cur_bin_start[du] += 1
                degrees[u] -= 1
    return core.astype(np.int64)


def degeneracy(graph: Graph) -> int:
    """The degeneracy ``δ(G)`` = max core number (0 for edgeless)."""
    cores = core_decomposition(graph)
    return int(cores.max()) if cores.size else 0


def degeneracy_ordering(graph: Graph) -> Tuple[np.ndarray, int]:
    """Return ``(ordering, δ)``: a peeling order certifying degeneracy.

    In the returned ordering, every vertex has at most ``δ`` neighbours
    *later* in the order -- the property the O(E·δ) cycle-finding
    algorithms rely on.
    """
    g = graph.without_self_loops() if graph.has_self_loops else graph
    n = g.n
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    degrees = g.degrees().copy()
    indptr, indices = g.adj.indptr, g.adj.indices
    removed = np.zeros(n, dtype=bool)
    ordering = np.empty(n, dtype=np.int64)
    # Simple lazy-bucket variant: repeatedly take the minimum remaining
    # degree.  Uses a bucket list rebuilt lazily; O((n+m) log n) worst
    # case via the candidate heap-free scan, fine at factor scale.
    import heapq

    heap = [(int(d), v) for v, d in enumerate(degrees)]
    heapq.heapify(heap)
    delta = 0
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != degrees[v]:
            continue
        removed[v] = True
        ordering[k] = v
        k += 1
        delta = max(delta, d)
        for u in indices[indptr[v] : indptr[v + 1]]:
            if not removed[u]:
                degrees[u] -= 1
                heapq.heappush(heap, (int(degrees[u]), int(u)))
    return ordering, int(delta)
