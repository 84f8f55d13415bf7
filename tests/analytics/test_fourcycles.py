"""Tests for direct 4-cycle counting.

The matrix identities and the paper's shortened BFS must agree with the
brute-force referee (:mod:`repro.refcheck.brute`) on everything, and
with hand-computed values on the classical families, bipartite
(butterfly) ones included.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analytics import (
    edge_squares_matrix,
    global_squares,
    vertex_squares_bfs,
    vertex_squares_matrix,
)
from repro.generators import (
    balanced_tree,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs import BipartiteGraph, Graph
from repro.refcheck import brute

from tests.strategies import connected_graphs, small_graph_corpus


class TestKnownGlobalCounts:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (cycle_graph(4), 1),
            (cycle_graph(5), 0),
            (cycle_graph(6), 0),  # C6 has no 4-cycle
            (complete_graph(4), 3),
            (complete_graph(5), 15),  # C(5,4) * 3
            (complete_bipartite(2, 2).graph, 1),
            (complete_bipartite(3, 3).graph, 9),
            (complete_bipartite(2, 5).graph, 10),  # C(2,2)*C(5,2)
            (star_graph(7), 0),
            (balanced_tree(2, 3), 0),
            (grid_graph(2, 3), 2),
            (path_graph(6), 0),
            (complete_bipartite(2, 4).graph, 6),
        ],
    )
    def test_global(self, graph, expected):
        assert global_squares(graph) == expected
        assert brute.global_squares(graph) == expected

    def test_complete_bipartite_formula(self):
        # K_{m,n} has C(m,2) C(n,2) squares.
        for m, n in [(2, 3), (3, 4), (4, 4)]:
            expected = (m * (m - 1) // 2) * (n * (n - 1) // 2)
            assert global_squares(complete_bipartite(m, n).graph) == expected


def _edge_dense(graph: Graph) -> np.ndarray:
    """The referee's per-edge dict as a dense symmetric matrix."""
    out = np.zeros((graph.n, graph.n), dtype=np.int64)
    for (u, v), c in brute.squares_at_edges(graph).items():
        out[u, v] = out[v, u] = c
    return out


class TestKnownBipartiteCounts:
    """Butterfly counts on bipartite families, per vertex (``U`` then
    ``W``) and per edge."""

    @pytest.mark.parametrize(
        "bg,expected",
        [
            (complete_bipartite(2, 2), [1, 1, 1, 1]),
            (complete_bipartite(3, 3), [6] * 6),
            (complete_bipartite(2, 4), [6, 6, 3, 3, 3, 3]),
            (BipartiteGraph(path_graph(6)), [0] * 6),
        ],
        ids=["K22", "K33", "K24", "path"],
    )
    def test_vertex(self, bg, expected):
        order = np.concatenate((bg.U, bg.W))
        for fn in (vertex_squares_matrix, vertex_squares_bfs):
            assert fn(bg.graph)[order].tolist() == expected

    @pytest.mark.parametrize(
        "bg,expected", [(complete_bipartite(2, 2), 1), (complete_bipartite(3, 3), 4)], ids=["K22", "K33"]
    )
    def test_edge(self, bg, expected):
        block = edge_squares_matrix(bg.graph)[bg.U][:, bg.W]
        assert block.nnz == bg.biadjacency().nnz
        assert np.all(block.data == expected)


class TestImplementationsAgree:
    @pytest.mark.parametrize("graph", small_graph_corpus(), ids=lambda g: f"n{g.n}m{g.m}")
    def test_vertex_methods_on_corpus(self, graph):
        if graph.has_self_loops:
            pytest.skip("loop-free methods only")
        ref = brute.squares_at_vertices(graph)
        assert np.array_equal(vertex_squares_matrix(graph), ref)
        assert np.array_equal(vertex_squares_bfs(graph), ref)

    @pytest.mark.parametrize("graph", small_graph_corpus(), ids=lambda g: f"n{g.n}m{g.m}")
    def test_edge_methods_on_corpus(self, graph):
        if graph.has_self_loops:
            pytest.skip("loop-free methods only")
        assert np.array_equal(edge_squares_matrix(graph).toarray(), _edge_dense(graph))

    @given(connected_graphs(min_n=2, max_n=8))
    @settings(max_examples=50, deadline=None)
    def test_property_vertex_methods(self, g):
        ref = brute.squares_at_vertices(g)
        assert np.array_equal(vertex_squares_matrix(g), ref)
        assert np.array_equal(vertex_squares_bfs(g), ref)

    @given(connected_graphs(min_n=2, max_n=8))
    @settings(max_examples=50, deadline=None)
    def test_property_edge_methods(self, g):
        assert np.array_equal(edge_squares_matrix(g).toarray(), _edge_dense(g))


class TestInvariants:
    @given(connected_graphs(min_n=2, max_n=8))
    @settings(max_examples=50, deadline=None)
    def test_sum_identities(self, g):
        """Σ_v s_v = 4 * squares and s = ◇·1 / 2 (paper's relation)."""
        s = vertex_squares_matrix(g)
        dia = edge_squares_matrix(g)
        total = global_squares(g)
        assert s.sum() == 4 * total
        assert np.array_equal(np.asarray(dia.sum(axis=1)).ravel(), 2 * s)

    def test_edge_matrix_pattern_equals_adjacency(self):
        g = balanced_tree(2, 3)  # square-free: all entries explicit zeros
        dia = edge_squares_matrix(g)
        assert dia.nnz == g.adj.nnz
        assert np.all(dia.data == 0)

    def test_edge_matrix_symmetric(self):
        g = grid_graph(3, 3)
        dia = edge_squares_matrix(g)
        assert (dia - dia.T).nnz == 0


class TestValidation:
    def test_self_loops_rejected_everywhere(self):
        g = path_graph(3).with_all_self_loops()
        for fn in (vertex_squares_matrix, vertex_squares_bfs, edge_squares_matrix, global_squares):
            with pytest.raises(ValueError, match="loop"):
                fn(g)

    def test_empty_graph(self):
        g = Graph.empty(4)
        assert global_squares(g) == 0
        assert np.all(vertex_squares_matrix(g) == 0)
        assert np.all(vertex_squares_bfs(g) == 0)
