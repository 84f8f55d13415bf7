"""Small connected scale-free factor builders.

The paper's opening sentence: "Given two small connected scale-free
graphs with adjacency matrices A and B ...".  These helpers produce
exactly that raw material:

* :func:`preferential_attachment` -- Barabási-Albert-style growth,
  connected by construction, heavy-tail degrees.
* :func:`scale_free_nonbipartite_factor` -- a PA graph guaranteed
  non-bipartite (an odd cycle is forced), the Assumption-1(i) ``A``.
* :func:`scale_free_bipartite_factor` -- a bipartite PA variant where
  new ``W``-vertices attach preferentially to ``U`` (and vice versa),
  connected and bipartite by construction; the Assumption-1(ii) factor.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.bipartite import BipartiteGraph, is_bipartite
from repro.graphs.graph import Graph
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = [
    "preferential_attachment",
    "scale_free_nonbipartite_factor",
    "scale_free_bipartite_factor",
]


def preferential_attachment(n: int, m: int = 2, seed=None) -> Graph:
    """Barabási-Albert graph: each new vertex attaches to ``m`` existing
    vertices chosen proportionally to degree.

    Connected by construction (every new vertex links into the existing
    core).  ``n`` must exceed ``m``.
    """
    n = check_positive(n, "n")
    m = check_positive(m, "m")
    if n <= m:
        raise ValueError(f"need n > m, got n={n}, m={m}")
    rng = as_generator(seed)
    # repeated-nodes list trick: sampling uniformly from the stub list
    # is sampling proportionally to degree.
    stubs: list[int] = []
    edges_u: list[int] = []
    edges_v: list[int] = []
    # Seed clique on the first m+1 vertices keeps early degrees nonzero.
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            edges_u.append(i)
            edges_v.append(j)
            stubs.extend((i, j))
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(int(stubs[rng.integers(len(stubs))]))
        for t in targets:
            edges_u.append(v)
            edges_v.append(t)
            stubs.extend((v, t))
    return Graph.from_edge_arrays(n, np.asarray(edges_u), np.asarray(edges_v))


def scale_free_nonbipartite_factor(n: int, m: int = 2, seed=None) -> Graph:
    """A connected scale-free graph guaranteed to be non-bipartite.

    ``m >= 2`` PA graphs start from a clique containing a triangle, so
    they are already non-bipartite; for ``m == 1`` (tree growth) a chord
    closing an odd cycle is added.
    """
    g = preferential_attachment(n, m, seed)
    if is_bipartite(g):
        # Tree case: close a triangle on the seed edge 0-1 via any
        # common... trees have no common neighbours, so connect 0-1's
        # neighbourhood: add chord (1, 2) if absent, else (0, 2).
        extra = [(1, 2)] if not g.has_edge(1, 2) else [(0, 2)]
        u, v = g.edge_arrays()
        eu = np.concatenate((u, np.asarray([extra[0][0]], dtype=np.int64)))
        ev = np.concatenate((v, np.asarray([extra[0][1]], dtype=np.int64)))
        g = Graph.from_edge_arrays(g.n, eu, ev)
        if is_bipartite(g):  # pragma: no cover - defensive
            raise AssertionError("failed to break bipartiteness")
    return g


def scale_free_bipartite_factor(nu: int, nw: int, m: int = 2, seed=None) -> BipartiteGraph:
    """A connected, bipartite, scale-free graph on parts of size
    ``(nu, nw)``.

    Growth: start from a star (``u_0`` joined to ``w_0 .. w_{m-1}``),
    then alternately add ``U``- and ``W``-vertices until both parts are
    full, each attaching to ``m`` distinct vertices of the *other* part
    chosen preferentially by degree.  Connected because every newcomer
    attaches to the existing component; bipartite because edges only
    ever cross parts.
    """
    nu = check_positive(nu, "nu")
    nw = check_positive(nw, "nw")
    m = check_positive(m, "m")
    if nw < m:
        raise ValueError(f"need nw >= m to seed the star, got nw={nw}, m={m}")
    rng = as_generator(seed)
    # Global vertex ids: U = 0..nu-1, W = nu..nu+nw-1.
    u_stubs: list[int] = []  # stubs on U side (targets for new W vertices)
    w_stubs: list[int] = []
    edges_u: list[int] = []
    edges_v: list[int] = []
    for k in range(m):
        w = nu + k
        edges_u.append(0)
        edges_v.append(w)
        u_stubs.append(0)
        w_stubs.append(w)
    next_u, next_w = 1, m
    # Alternate insertion; when one part is exhausted, keep filling the
    # other.
    while next_u < nu or next_w < nw:
        grow_u = next_u < nu and (next_w >= nw or (next_u / nu) <= (next_w / nw))
        # Every vertex placed so far holds a stub, so the other part has
        # next_w (or next_u) distinct attachment targets.
        if grow_u:
            attach_pool, own_stubs, want = w_stubs, u_stubs, min(m, next_w)
            vid = next_u
            next_u += 1
        else:
            attach_pool, own_stubs, want = u_stubs, w_stubs, min(m, next_u)
            vid = nu + next_w
            next_w += 1
        targets: set[int] = set()
        while len(targets) < want:
            targets.add(int(attach_pool[rng.integers(len(attach_pool))]))
        for t in targets:
            edges_u.append(vid)
            edges_v.append(t)
            own_stubs.append(vid)
            attach_pool.append(t)
    g = Graph.from_edge_arrays(nu + nw, np.asarray(edges_u), np.asarray(edges_v))
    part = np.zeros(nu + nw, dtype=bool)
    part[nu:] = True
    return BipartiteGraph(g, part)
