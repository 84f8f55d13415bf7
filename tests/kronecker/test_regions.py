"""Tests for triangle-free region analysis."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analytics import global_triangles, vertex_triangles
from repro.analytics.truss import truss_number_max
from repro.generators import complete_graph, cycle_graph, path_graph, wheel_graph
from repro.graphs import Graph
from repro.kronecker.regions import (
    ground_truth_truss_region,
    triangle_free_edge_count,
    triangle_free_vertex_mask,
)

from tests.shard_referee import kron_graph
from tests.strategies import connected_graphs


class TestVertexMask:
    def test_matches_direct_counting(self):
        A, B = wheel_graph(5), cycle_graph(3)
        mask = triangle_free_vertex_mask(A, B)
        t_direct = vertex_triangles(kron_graph([A, B]))
        assert np.array_equal(mask, t_direct == 0)

    def test_bipartite_factor_means_all_free(self):
        A, B = complete_graph(4), path_graph(4)
        assert np.all(triangle_free_vertex_mask(A, B))

    def test_mixed_factor(self):
        # triangle + pendant: pendant vertex (3) is triangle-free.
        A = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        B = cycle_graph(3)
        mask = triangle_free_vertex_mask(A, B).reshape(4, 3)
        assert np.all(~mask[0])   # vertex 0 of A is in the triangle
        assert np.all(mask[3])    # pendant slab is triangle-free

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            triangle_free_vertex_mask(path_graph(3).with_all_self_loops(), cycle_graph(3))

    @given(connected_graphs(min_n=3, max_n=5), connected_graphs(min_n=3, max_n=5))
    @settings(max_examples=25, deadline=None)
    def test_property(self, A, B):
        mask = triangle_free_vertex_mask(A, B)
        t_direct = vertex_triangles(kron_graph([A, B]))
        assert np.array_equal(mask, t_direct == 0)


class TestEdgeCount:
    def test_matches_direct(self):
        A, B = wheel_graph(5), complete_graph(4)
        free, total = triangle_free_edge_count(A, B)
        C = kron_graph([A, B])
        from repro.analytics import edge_triangles

        et = edge_triangles(C)
        direct_free = C.m - int(np.count_nonzero(et.data)) // 2
        assert total == C.m
        assert free == direct_free

    def test_all_free_with_bipartite_factor(self):
        A, B = complete_graph(4), path_graph(3)
        free, total = triangle_free_edge_count(A, B)
        assert free == total


class TestTrussRegion:
    def test_region_is_triangle_free(self):
        A = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        B = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        region = ground_truth_truss_region(A, B)
        assert global_triangles(region) == 0
        assert truss_number_max(region) == 0

    def test_region_nonempty_for_mixed_factors(self):
        A = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        region = ground_truth_truss_region(A, A)
        assert region.n > 0
        assert region.m > 0
