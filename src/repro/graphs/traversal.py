"""Breadth-first traversal, hop distances, eccentricity and diameter.

The paper notes (§I, abstract) that ground truth for *degree, diameter
and eccentricity* carries over from prior Kronecker work; this module
provides the exact reference computations those claims are checked
against, all built on one vectorised BFS kernel.

``hops_A(i, j)`` in the paper is :func:`hop_distance` here; unreachable
pairs report ``-1`` (the paper only evaluates it on connected graphs).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph

__all__ = [
    "bfs_levels",
    "hop_distance",
    "eccentricity",
    "eccentricities",
    "diameter",
    "radius",
]


def bfs_levels(graph: Graph, sources) -> np.ndarray:
    """Hop distance from the nearest source to every vertex.

    ``sources`` may be a single vertex or an array.  Unreachable
    vertices get ``-1``.  Self loops do not affect distances.

    This is the single BFS kernel underlying everything else in the
    module: per wave, the frontier's CSR rows are gathered with one
    repeat/cumsum expansion and deduplicated with one ``unique`` --
    no per-vertex Python.
    """
    n = graph.n
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise IndexError("source vertex out of range")
    levels = np.full(n, -1, dtype=np.int64)
    levels[sources] = 0
    indptr, indices = graph.indptr, graph.indices
    frontier = np.unique(sources)
    depth = 0
    while frontier.size:
        depth += 1
        counts = indptr[frontier + 1] - indptr[frontier]
        total = int(counts.sum())
        if total == 0:
            break
        starts = np.repeat(indptr[frontier], counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        neigh = indices[starts + offsets]
        fresh = np.unique(neigh[levels[neigh] == -1])
        levels[fresh] = depth
        frontier = fresh
    return levels


def hop_distance(graph: Graph, i: int, j: int) -> int:
    """Minimum number of hops from ``i`` to ``j`` (paper's ``hops``).

    Returns ``-1`` when ``j`` is unreachable from ``i``.
    """
    return int(bfs_levels(graph, i)[j])


def eccentricity(graph: Graph, i: int) -> int:
    """Eccentricity of ``i``: max hop distance to any reachable vertex.

    Raises if the graph is disconnected from ``i``'s point of view
    (eccentricity is conventionally infinite there); callers wanting the
    reachable-only maximum can use :func:`bfs_levels` directly.
    """
    levels = bfs_levels(graph, i)
    if np.any(levels == -1):
        raise ValueError(f"vertex {i} does not reach the whole graph; eccentricity undefined")
    return int(levels.max())


def eccentricities(graph: Graph, sample=None, rng=None) -> np.ndarray:
    """Eccentricity of every vertex (or a sampled subset).

    ``sample=None`` computes all ``n`` BFS runs -- O(n(n+m)), the exact
    reference used in tests.  With ``sample=k`` only ``k`` random
    vertices are evaluated (the array still has length ``n``, with
    ``-1`` marking unevaluated entries); this supports the
    massive-product benchmarks where exact all-pairs work is off the
    table.
    """
    n = graph.n
    out = np.full(n, -1, dtype=np.int64)
    if sample is None:
        targets = np.arange(n)
    else:
        from repro.utils.rng import as_generator

        gen = as_generator(rng)
        sample = min(int(sample), n)
        targets = gen.choice(n, size=sample, replace=False)
    for v in targets.tolist():
        out[v] = eccentricity(graph, v)
    return out


def diameter(graph: Graph) -> int:
    """Maximum eccentricity (exact, all-sources BFS)."""
    eccs = eccentricities(graph)
    return int(eccs.max())


def radius(graph: Graph) -> int:
    """Minimum eccentricity (exact, all-sources BFS)."""
    eccs = eccentricities(graph)
    return int(eccs.min())
