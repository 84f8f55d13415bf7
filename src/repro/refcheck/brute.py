"""Slow-but-obviously-correct brute-force reference counters.

Every other implementation of the paper's quantities in this repository
— the chain engine, the printed ``sp.kron`` term sums, the oracle, the
streaming values, the walk-table counter in :mod:`repro.analytics` —
descends from the *same* closed-walk algebra.  A shared algebra bug
would pass every bit-identity check between them.  This module is the
derivation-independent referee: it counts 4-cycles by direct
neighborhood intersection on a materialized graph, with plain Python
sets, and re-derives structural facts (bipartiteness, connectivity,
community edge counts) by first-principles traversal.

Ground rules, enforced by a dedicated test:

* **no imports from** :mod:`repro.kronecker` (kernels, ground_truth,
  oracle, streaming, ...) and **none from** :mod:`repro.analytics` —
  only the :class:`~repro.graphs.graph.Graph` container is consumed,
  and only through its adjacency accessors;
* no linear algebra: no matrix powers, no ``A @ A``, no closed-walk
  identities.  Counting is literal cycle enumeration.

Everything here is O(n²·d) to O(m·d²) — fine for the differential
engine's small materialized products, never for production paths.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph

__all__ = [
    "neighbor_sets",
    "degrees",
    "squares_at_vertices",
    "squares_at_edges",
    "global_squares",
    "two_coloring",
    "is_proper_two_coloring",
    "connected_components",
    "community_edge_counts",
    "clustering_at_edges",
    "wing_peel",
]


def _require_loop_free(graph: Graph) -> None:
    if graph.has_self_loops:
        raise ValueError(
            "brute-force 4-cycle counting assumes a loop-free graph "
            "(paper §II-B); products of loop-free right factors are loop-free"
        )


def neighbor_sets(graph: Graph) -> List[set]:
    """Per-vertex neighbour sets — the only data structure used here."""
    return [set(graph.neighbors(v).tolist()) for v in range(graph.n)]


def degrees(graph: Graph, nbrs: Optional[List[set]] = None) -> np.ndarray:
    """Degree per vertex, by counting neighbours one by one."""
    _require_loop_free(graph)
    if nbrs is None:
        nbrs = neighbor_sets(graph)
    return np.array([len(s) for s in nbrs], dtype=np.int64)


def squares_at_vertices(graph: Graph, nbrs: Optional[List[set]] = None) -> np.ndarray:
    """4-cycles through each vertex, by neighborhood intersection.

    A 4-cycle through ``v`` is ``v – a – u – b – v`` with ``a ≠ b`` both
    in ``N(v) ∩ N(u)``; the opposite vertex ``u`` is unique per cycle,
    so ``s(v) = Σ_{u ≠ v} C(|N(v) ∩ N(u)|, 2)``.  Candidate ``u`` are
    restricted to vertices two hops from ``v`` (any opposite vertex is
    one), which changes nothing about correctness.
    """
    _require_loop_free(graph)
    if nbrs is None:
        nbrs = neighbor_sets(graph)
    out = np.zeros(graph.n, dtype=np.int64)
    for v in range(graph.n):
        candidates: set = set()
        for w in nbrs[v]:
            candidates |= nbrs[w]
        candidates.discard(v)
        total = 0
        for u in candidates:
            c = len(nbrs[v] & nbrs[u])
            total += c * (c - 1) // 2
        out[v] = total
    return out


def squares_at_edges(
    graph: Graph, nbrs: Optional[List[set]] = None
) -> Dict[Tuple[int, int], int]:
    """4-cycles containing each undirected edge, keyed ``(u, v)``, ``u <= v``.

    A 4-cycle containing edge ``(u, v)`` is ``u – v – x – y – u``; for a
    fixed cycle the pair ``(x, y)`` is unique (``x`` is ``v``'s other
    cycle neighbour, ``y`` is ``u``'s).  So the count is the number of
    edges ``(x, y)`` with ``x ∈ N(v)∖{u}``, ``y ∈ N(u)∖{v}``, ``x ≠ y``.
    """
    _require_loop_free(graph)
    if nbrs is None:
        nbrs = neighbor_sets(graph)
    counts: Dict[Tuple[int, int], int] = {}
    u_arr, v_arr = graph.edge_arrays()
    for u, v in zip(u_arr.tolist(), v_arr.tolist()):
        c = 0
        for x in nbrs[v]:
            if x == u:
                continue
            for y in nbrs[u]:
                if y == v or y == x:
                    continue
                if y in nbrs[x]:
                    c += 1
        counts[(u, v)] = c
    return counts


def global_squares(graph: Graph, nbrs: Optional[List[set]] = None) -> int:
    """Total 4-cycles, by summing over *diagonal pairs*.

    Each 4-cycle ``v – a – u – b`` has exactly two diagonals, ``{v, u}``
    and ``{a, b}``, and a diagonal pair with codegree ``c`` closes
    ``C(c, 2)`` cycles; so ``Σ_{u < v} C(|N(u) ∩ N(v)|, 2)`` counts every
    cycle exactly twice.  This is a *different* enumeration route than
    :func:`squares_at_vertices`, so the two cross-check each other.
    """
    _require_loop_free(graph)
    if nbrs is None:
        nbrs = neighbor_sets(graph)
    total = 0
    for v in range(graph.n):
        for u in range(v + 1, graph.n):
            c = len(nbrs[v] & nbrs[u])
            total += c * (c - 1) // 2
    half, rem = divmod(total, 2)
    assert rem == 0, "diagonal-pair enumeration double-counts every 4-cycle"
    return half


def clustering_at_edges(
    graph: Graph, nbrs: Optional[List[set]] = None
) -> Dict[Tuple[int, int], float]:
    """Def.-10 edge clustering ``◇ / ((d_u − 1)(d_v − 1))`` from brute
    counts, over edges whose endpoints both have degree >= 2."""
    if nbrs is None:
        nbrs = neighbor_sets(graph)
    deg = degrees(graph, nbrs)
    out: Dict[Tuple[int, int], float] = {}
    for (u, v), dia in squares_at_edges(graph, nbrs).items():
        if deg[u] >= 2 and deg[v] >= 2:
            out[(u, v)] = dia / ((int(deg[u]) - 1) * (int(deg[v]) - 1))
    return out


def _edge_support(live: List[set], u: int, v: int) -> int:
    """4-cycles through the *remaining* edge ``(u, v)``, by the same
    literal ``x``/``y`` set-intersection walk as :func:`squares_at_edges`
    but over a mutable adjacency (used mid-peel)."""
    c = 0
    for x in live[v]:
        if x == u:
            continue
        for y in live[u]:
            if y == v or y == x:
                continue
            if y in live[x]:
                c += 1
    return c


def wing_peel(
    graph: Graph, nbrs: Optional[List[set]] = None
) -> Dict[Tuple[int, int], int]:
    """Exact wing (bitruss) numbers by batch peeling, keyed ``(u, v)``,
    ``u <= v``.

    The wing number of an edge is the largest ``k`` such that the edge
    lies in a subgraph where *every* edge sits on at least ``k``
    4-cycles.  This referee peels by brute force: at level ``k`` it
    recomputes every remaining edge's support *from scratch* (literal
    set intersection, nothing incremental), deletes the batch with
    support ``<= k``, assigns them wing number ``k``, and repeats until
    the level is dry before raising ``k`` to the new minimum support.
    Deleting an edge only ever lowers other supports, so the batch
    order is immaterial — edges dragged under ``k`` by a deletion are
    caught on the next sweep of the same level.

    Deliberately shares no machinery with the production peeling engine
    (lazy heap + per-cycle decrements): a bookkeeping bug there cannot
    hide here.
    """
    _require_loop_free(graph)
    if nbrs is None:
        nbrs = neighbor_sets(graph)
    live = [set(s) for s in nbrs]
    u_arr, v_arr = graph.edge_arrays()
    edges = {(min(u, v), max(u, v)) for u, v in zip(u_arr.tolist(), v_arr.tolist())}
    wing: Dict[Tuple[int, int], int] = {}
    k = 0
    while edges:
        supports = {(u, v): _edge_support(live, u, v) for u, v in edges}
        k = max(k, min(supports.values()))
        doomed = [e for e, s in supports.items() if s <= k]
        for u, v in doomed:
            wing[(u, v)] = k
            edges.discard((u, v))
            live[u].discard(v)
            live[v].discard(u)
    return wing


# ---------------------------------------------------------------------------
# Structure: bipartiteness, connectivity, communities
# ---------------------------------------------------------------------------


def two_coloring(graph: Graph) -> Optional[np.ndarray]:
    """A proper 2-coloring found by plain BFS, or ``None`` if the graph
    has an odd cycle (is not bipartite)."""
    colors = np.full(graph.n, -1, dtype=np.int64)
    for root in range(graph.n):
        if colors[root] != -1:
            continue
        colors[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for w in graph.neighbors(v).tolist():
                if colors[w] == -1:
                    colors[w] = 1 - colors[v]
                    queue.append(w)
                elif colors[w] == colors[v]:
                    return None
    return colors


def is_proper_two_coloring(graph: Graph, part: Iterable[bool]) -> bool:
    """Whether the claimed bipartition puts the two endpoints of every
    edge in different parts (checked edge by edge)."""
    part = np.asarray(list(part), dtype=bool)
    u_arr, v_arr = graph.edge_arrays()
    for u, v in zip(u_arr.tolist(), v_arr.tolist()):
        if part[u] == part[v]:
            return False
    return True


def connected_components(graph: Graph) -> np.ndarray:
    """Component label per vertex (labels are the component roots),
    found by plain BFS."""
    labels = np.full(graph.n, -1, dtype=np.int64)
    for root in range(graph.n):
        if labels[root] != -1:
            continue
        labels[root] = root
        queue = [root]
        while queue:
            v = queue.pop()
            for w in graph.neighbors(v).tolist():
                if labels[w] == -1:
                    labels[w] = root
                    queue.append(w)
    return labels


def community_edge_counts(graph: Graph, members: Iterable[int]) -> Tuple[int, int]:
    """Def.-11 ``(m_in, m_out)`` by looking at every edge once.

    ``m_in`` counts edges with both endpoints in the community,
    ``m_out`` edges with exactly one.
    """
    inside = set(int(v) for v in members)
    m_in = 0
    m_out = 0
    u_arr, v_arr = graph.edge_arrays()
    for u, v in zip(u_arr.tolist(), v_arr.tolist()):
        hits = (u in inside) + (v in inside)
        if hits == 2:
            m_in += 1
        elif hits == 1:
            m_out += 1
    return m_in, m_out
