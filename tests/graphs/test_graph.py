"""Tests for the Graph container."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import Graph


class TestConstruction:
    def test_from_edges(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.m == 2
        assert g.has_edge(1, 0)  # symmetrized

    def test_from_edges_empty(self):
        g = Graph.from_edges(4, [])
        assert g.n == 4
        assert g.m == 0

    def test_from_edges_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            Graph.from_edges(2, [(0, 2)])

    def test_from_edges_bad_shape(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1, 2)])

    def test_from_edge_arrays(self):
        g = Graph.from_edge_arrays(3, np.array([0]), np.array([2]))
        assert g.has_edge(0, 2) and g.has_edge(2, 0)

    def test_from_edge_arrays_mismatched(self):
        with pytest.raises(ValueError):
            Graph.from_edge_arrays(3, np.array([0, 1]), np.array([2]))

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(3, [(0, 1), (0, 1), (1, 0)])
        assert g.m == 1
        assert g.adj.max() == 1  # binary

    def test_from_dense_binarizes(self):
        g = Graph(np.array([[0, 7], [7, 0]]))
        assert g.adj.max() == 1

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(np.array([[0, 1], [0, 0]]))

    def test_rect_rejected(self):
        with pytest.raises(ValueError, match="square"):
            Graph(np.zeros((2, 3)))

    def test_empty(self):
        g = Graph.empty(5)
        assert (g.n, g.m) == (5, 0)


class TestProperties:
    def test_degrees(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert np.array_equal(g.degrees(), [3, 1, 1, 1])

    def test_self_loop_counts(self):
        g = Graph(np.array([[1, 1], [1, 0]]))
        assert g.num_self_loops == 1
        assert g.has_self_loops
        assert not g.has_all_self_loops
        assert g.m == 2  # one edge + one loop

    def test_all_self_loops(self):
        g = Graph.from_edges(2, [(0, 1)]).with_all_self_loops()
        assert g.has_all_self_loops
        assert g.m == 3

    def test_self_loop_degree_contribution(self):
        g = Graph(np.array([[1, 1], [1, 0]]))
        assert np.array_equal(g.degrees(), [2, 1])

    def test_neighbors_sorted(self):
        g = Graph.from_edges(4, [(2, 0), (2, 3), (2, 1)])
        assert np.array_equal(g.neighbors(2), [0, 1, 3])

    def test_neighbors_out_of_range(self):
        with pytest.raises(IndexError):
            Graph.empty(2).neighbors(2)

    def test_edge_arrays_each_edge_once(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        u, v = g.edge_arrays()
        assert u.size == 2
        assert np.all(u <= v)

    def test_edges_iterator(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert sorted(g.edges()) == [(0, 1), (1, 2)]


class TestDerivedGraphs:
    def test_with_all_self_loops_idempotent(self):
        g = Graph.from_edges(3, [(0, 1)]).with_all_self_loops()
        g2 = g.with_all_self_loops()
        assert g == g2

    def test_without_self_loops(self):
        g = Graph.from_edges(3, [(0, 1)]).with_all_self_loops().without_self_loops()
        assert g.num_self_loops == 0
        assert g.m == 1

    def test_subgraph(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        sub = g.subgraph([1, 2])
        assert sub.n == 2
        assert sub.m == 1
        assert sub.has_edge(0, 1)

    def test_subgraph_rejects_repeated_or_missing_vertices(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="distinct"):
            g.subgraph([1, 1])
        with pytest.raises(IndexError, match="out of range"):
            g.subgraph([0, 4])
        assert g.subgraph([]).n == 0

    def test_relabel_roundtrip(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        perm = np.array([2, 0, 3, 1])
        h = g.relabel(perm)
        for u, v in g.edges():
            assert h.has_edge(int(perm[u]), int(perm[v]))

    def test_relabel_rejects_non_permutation(self):
        g = Graph.empty(3)
        with pytest.raises(ValueError):
            g.relabel([0, 0, 1])

    def test_equality(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = Graph.from_edges(3, [(1, 0)])
        c = Graph.from_edges(3, [(0, 2)])
        assert a == b
        assert a != c
