"""Exact wing (bitruss) numbers by 4-cycle support peeling.

Rem. 1 says Kronecker products cannot hand you a *trivially known*
wing decomposition -- but the Thm. 5 / Def. 9 supports still bound it
from above, and on referee-sized products the exact decomposition is
computable.  This module is that computation, for **any loop-free
graph**: the wing number of an edge is the largest ``k`` such that the
edge survives in a subgraph where every edge lies on at least ``k``
4-cycles.  On a bipartite graph 4-cycles are exactly butterflies, so
this reproduces the Sarıyüce-Pinar wing numbers; on non-bipartite
graphs it is the same peel over ordinary 4-cycles.

The peel turns the generator's bounds into testable invariants:

* ``wing(e) <= support(e)`` for every edge (peeling only removes
  support), so the oracle's ``wings_at_edges`` answers dominate;
* ``support(e) == 0`` implies ``wing(e) == 0`` -- certified-zero edges
  peel at exactly their bound;
* ``max wing <= max support``, the scalar Rem. 1 bound.

Algorithm: classical min-support peeling with a lazy heap.  Each step
pops a minimum-support edge, enumerates the 4-cycles it still lies on
(set intersections on live adjacency), and decrements the three partner
edges of each.  Complexity is dominated by per-removal enumeration --
fine for the small-to-medium materialized products where exact wing
ground truth is checked, never for production streams.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.graph import Graph
    from repro.kronecker.assumptions import BipartiteKronecker
    from repro.kronecker.multifactor import KroneckerChain

__all__ = ["WingPeelResult", "peel_wing_numbers", "peel_product", "peel_chain"]

Edge = Tuple[int, int]


@dataclass(frozen=True)
class WingPeelResult:
    """Outcome of a full peel: exact wing numbers plus the initial
    supports they were peeled from, both keyed ``(u, v)`` with
    ``u < v``."""

    wing: Dict[Edge, int]
    support: Dict[Edge, int]

    @property
    def max_wing(self) -> int:
        return max(self.wing.values(), default=0)

    @property
    def max_support(self) -> int:
        return max(self.support.values(), default=0)

    def bounds_respected(self) -> bool:
        """The Rem. 1 invariant: every wing number <= its support, with
        equality on support-0 edges (both are then 0)."""
        return all(0 <= self.wing[e] <= s for e, s in self.support.items())


def _adjacency_sets(adj: sp.csr_array) -> List[set]:
    adj = sp.csr_array(adj)
    if adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got {adj.shape}")
    if adj.diagonal().any():
        raise ValueError(
            "wing peeling assumes a loop-free graph (paper §II-B); products "
            "of Assumption-1 factors and loop-free chains qualify"
        )
    n = adj.shape[0]
    nbrs: List[set] = [set() for _ in range(n)]
    coo = adj.tocoo()
    for u, v in zip(coo.row.tolist(), coo.col.tolist()):
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def _cycles_through(nbrs: List[set], u: int, v: int):
    """Yield ``(x, y)`` completing the 4-cycle ``u - v - x - y - u`` on
    the live adjacency; the pair is unique per cycle."""
    for x in nbrs[v]:
        if x == u:
            continue
        for y in nbrs[u] & nbrs[x]:
            if y != v and y != x:
                yield x, y


def peel_wing_numbers(adj) -> WingPeelResult:
    """Peel a symmetric loop-free adjacency (anything ``sp.csr_array``
    accepts) down to exact per-edge wing numbers."""
    nbrs = _adjacency_sets(adj)
    support: Dict[Edge, int] = {}
    for u in range(len(nbrs)):
        for v in nbrs[u]:
            if u < v:
                support[(u, v)] = sum(1 for _ in _cycles_through(nbrs, u, v))
    initial = dict(support)

    heap = [(s, e) for e, s in support.items()]
    heapq.heapify(heap)
    wing: Dict[Edge, int] = {}
    k = 0
    while heap:
        s, (u, v) = heapq.heappop(heap)
        if (u, v) in wing or s != support[(u, v)]:
            continue  # stale heap entry
        k = max(k, s)
        wing[(u, v)] = k
        # Each dying 4-cycle u-v-x-y-u loses one cycle on its three
        # other edges.
        for x, y in _cycles_through(nbrs, u, v):
            for edge in ((min(v, x), max(v, x)), (min(x, y), max(x, y)),
                         (min(y, u), max(y, u))):
                support[edge] -= 1
                heapq.heappush(heap, (support[edge], edge))
        nbrs[u].discard(v)
        nbrs[v].discard(u)
    return WingPeelResult(wing=wing, support=initial)


def peel_product(bk: "BipartiteKronecker") -> WingPeelResult:
    """Exact wing numbers of a materialized 2-factor product, keyed by
    product vertex codes -- the referee for the oracle's
    ``wings_at_edges`` bounds."""
    return peel_wing_numbers(bk.materialize().adj)


def peel_chain(chain: "KroneckerChain", max_entries: int = 5_000_000) -> WingPeelResult:
    """Exact wing numbers of a materialized chain product (refuses
    products past ``max_entries``, like ``KroneckerChain.materialize``)."""
    return peel_wing_numbers(chain.materialize(max_entries=max_entries))
