"""Tests for Thms. 1-2 and the Weichsel disconnection (§III-A)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.generators import complete_bipartite, cycle_graph, path_graph
from repro.graphs import Graph, connected_components, is_bipartite, is_connected
from repro.graphs.connectivity import num_components
from repro.kronecker import predict_product_connectivity, weichsel_components

from tests.shard_referee import kron_graph
from tests.strategies import connected_bipartite_graphs, connected_nonbipartite_graphs


class TestPredictions:
    def test_thm1_predicted_and_true(self):
        A, B = cycle_graph(5), path_graph(4)
        pred = predict_product_connectivity(A, B)
        assert pred.connected is True
        assert "Thm 1" in pred.reason
        C = kron_graph([A, B])
        assert is_connected(C) and is_bipartite(C)

    def test_thm2_predicted_and_true(self):
        A = path_graph(4).with_all_self_loops()
        B = path_graph(5)
        pred = predict_product_connectivity(A, B)
        assert pred.connected is True
        assert "Thm 2" in pred.reason
        C = kron_graph([A, B])
        assert is_connected(C) and is_bipartite(C)

    def test_weichsel_predicted_and_true(self):
        A, B = path_graph(3), path_graph(4)
        pred = predict_product_connectivity(A, B)
        assert pred.connected is False
        assert "Weichsel" in pred.reason
        assert num_components(kron_graph([A, B])) == 2

    def test_nonbipartite_B_out_of_scope(self):
        pred = predict_product_connectivity(cycle_graph(3), cycle_graph(5))
        assert pred.connected is None
        assert pred.bipartite is False

    def test_disconnected_factor_no_claim(self):
        A = Graph.from_edges(4, [(0, 1), (2, 3)])
        pred = predict_product_connectivity(A, path_graph(3))
        assert pred.connected is None


class TestPropertyBased:
    @given(connected_nonbipartite_graphs(max_n=5), connected_bipartite_graphs(max_side=3))
    @settings(max_examples=30, deadline=None)
    def test_thm1_property(self, A, B):
        """Thm 1: non-bipartite connected x bipartite connected -> connected."""
        C = kron_graph([A, B.graph])
        assert is_connected(C)
        assert is_bipartite(C)

    @given(connected_bipartite_graphs(max_side=3), connected_bipartite_graphs(max_side=3))
    @settings(max_examples=30, deadline=None)
    def test_thm2_property(self, A, B):
        """Thm 2: (A + I) x B with A, B bipartite connected -> connected."""
        C = kron_graph([A.graph.with_all_self_loops(), B.graph])
        assert is_connected(C)
        assert is_bipartite(C)

    @given(connected_bipartite_graphs(max_side=3), connected_bipartite_graphs(max_side=3))
    @settings(max_examples=30, deadline=None)
    def test_weichsel_property(self, A, B):
        """Two connected bipartite loop-free factors -> exactly 2 components."""
        C = kron_graph([A.graph, B.graph])
        assert num_components(C) == 2


class TestWeichselComponents:
    def test_component_sets_match_bfs(self):
        from repro.graphs import BipartiteGraph

        A = BipartiteGraph(path_graph(5))
        B = complete_bipartite(2, 3)
        same, crossed = weichsel_components(A, B)
        C = kron_graph([A.graph, B.graph])
        labels = connected_components(C)
        # All of "same" shares one label, all of "crossed" the other.
        assert np.unique(labels[same]).size == 1
        assert np.unique(labels[crossed]).size == 1
        assert labels[same[0]] != labels[crossed[0]]

    def test_partition_is_complete(self):
        from repro.graphs import BipartiteGraph

        A = BipartiteGraph(path_graph(3))
        B = BipartiteGraph(path_graph(4))
        same, crossed = weichsel_components(A, B)
        assert same.size + crossed.size == 12
        assert np.intersect1d(same, crossed).size == 0

    def test_sizes(self):
        A = complete_bipartite(2, 3)
        B = complete_bipartite(1, 4)
        same, crossed = weichsel_components(A, B)
        # |same| = |U_A||U_B| + |W_A||W_B|, |crossed| = |U_A||W_B| + |W_A||U_B|
        assert same.size == 2 * 1 + 3 * 4
        assert crossed.size == 2 * 4 + 3 * 1
