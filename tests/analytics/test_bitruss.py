"""Tests for k-wing (bitruss) numbers of bipartite graphs, computed by
the general peel ``peel_wing_numbers`` (on a bipartite graph its
4-cycles are exactly butterflies)."""

import numpy as np
import pytest

from repro.analytics import edge_squares_matrix, peel_wing_numbers
from repro.generators import complete_bipartite, path_graph
from repro.graphs import BipartiteGraph


def wing_numbers(bg):
    """Wing number of every edge, keyed ``(min, max)``."""
    return peel_wing_numbers(bg.graph.adj).wing


def max_wing(bg):
    return peel_wing_numbers(bg.graph.adj).max_wing


def _max_support_subgraph_check(bg, wings):
    """Definition check: for each k, the edges with wing >= k must form
    a subgraph where every edge has >= k butterflies."""
    for k in sorted(set(wings.values())):
        if k == 0:
            continue
        keep = [(u, w) for (u, w), val in wings.items() if val >= k]
        if not keep:
            continue
        # Build the subgraph on kept edges.
        n = bg.n
        rows = [u for u, w in keep] + [w for u, w in keep]
        cols = [w for u, w in keep] + [u for u, w in keep]
        import numpy as np

        from repro.graphs import Graph

        sub = Graph.from_edge_arrays(n, np.array(rows[: len(keep)]), np.array(cols[: len(keep)]))
        support = edge_squares_matrix(sub)
        assert np.all(support.data >= k), f"k={k}: some edge has support < k"


class TestKnownValues:
    def test_k22_wing_1(self):
        bg = complete_bipartite(2, 2)
        wings = wing_numbers(bg)
        assert set(wings.values()) == {1}

    def test_k33_wing_4(self):
        bg = complete_bipartite(3, 3)
        assert max_wing(bg) == 4
        assert set(wing_numbers(bg).values()) == {4}

    def test_kmn_uniform_wing(self):
        # In K_{m,n} every edge sits in (m-1)(n-1) butterflies; the graph
        # is its own maximal wing.
        bg = complete_bipartite(3, 4)
        assert set(wing_numbers(bg).values()) == {6}

    def test_butterfly_free_graph(self):
        bg = BipartiteGraph(path_graph(6))
        wings = wing_numbers(bg)
        assert all(v == 0 for v in wings.values())
        assert max_wing(bg) == 0

    def test_covers_every_edge(self):
        bg = complete_bipartite(2, 3)
        wings = wing_numbers(bg)
        assert len(wings) == bg.m


class TestStructure:
    def test_mixed_structure(self):
        # K_{2,2} core with a pendant edge: pendant has wing 0.
        X = np.array(
            [
                [1, 1, 0],
                [1, 1, 1],
            ]
        )
        bg = BipartiteGraph.from_biadjacency(X)
        wings = wing_numbers(bg)
        # Global ids: U = {0,1}, W = {2,3,4}.
        assert wings[(1, 4)] == 0
        assert wings[(0, 2)] == 1
        assert wings[(1, 3)] == 1

    def test_two_cliques_sharing_nothing(self):
        # Two disjoint K_{2,2}s: both peel at wing 1.
        X = np.zeros((4, 4), dtype=int)
        X[:2, :2] = 1
        X[2:, 2:] = 1
        bg = BipartiteGraph.from_biadjacency(X)
        assert set(wing_numbers(bg).values()) == {1}

    def test_nested_density(self):
        # K_{3,3} plus a K_{2,2} pendant sharing one vertex: the dense
        # part keeps wing 4, the sparse appendix peels earlier.
        X = np.zeros((5, 5), dtype=int)
        X[:3, :3] = 1
        X[3:, 3:] = 1
        X[2, 3] = 0  # keep blocks disjoint except through nothing
        bg = BipartiteGraph.from_biadjacency(X)
        wings = wing_numbers(bg)
        dense = {wings[(u, 5 + w)] for u in range(3) for w in range(3)}
        assert dense == {4}
        sparse = {wings[(3 + u, 5 + 3 + w)] for u in range(2) for w in range(2)}
        assert sparse == {1}

    def test_definition_on_random_graphs(self):
        from repro.generators import bipartite_chung_lu

        for seed in range(3):
            bg = bipartite_chung_lu(np.full(8, 3.0), np.full(8, 3.0), seed=seed)
            wings = wing_numbers(bg)
            _max_support_subgraph_check(bg, wings)

    def test_initial_support_upper_bounds_wing(self):
        from repro.generators import bipartite_chung_lu

        bg = bipartite_chung_lu(np.full(10, 3.0), np.full(10, 3.0), seed=9)
        wings = wing_numbers(bg)
        support = edge_squares_matrix(bg.graph)
        for (u, w), wv in wings.items():
            assert wv <= support[u, w]
