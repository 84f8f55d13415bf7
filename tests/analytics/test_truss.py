"""Tests for the k-truss decomposition and the Rem.-1 contrast."""

import numpy as np
import pytest

from repro.analytics.truss import truss_decomposition, truss_number_max
from repro.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    wheel_graph,
)
from repro.graphs import Graph
from repro.kronecker import Assumption, make_bipartite_product

from tests.shard_referee import kron_graph


class TestKnownValues:
    def test_k4_uniform(self):
        # Every edge of K4 closes 2 triangles; K4 is its own max truss.
        truss = truss_decomposition(complete_graph(4))
        assert set(truss.values()) == {2}

    def test_k5(self):
        assert truss_number_max(complete_graph(5)) == 3

    def test_triangle_free_all_zero(self):
        truss = truss_decomposition(cycle_graph(6))
        assert all(v == 0 for v in truss.values())
        assert truss_number_max(complete_bipartite(3, 4).graph) == 0

    def test_wheel(self):
        # Wheel rim edges close 1 triangle (via the hub); spokes close 2
        # but collapse once the rim peels -- the whole wheel is 1-truss.
        truss = truss_decomposition(wheel_graph(5))
        assert set(truss.values()) == {1}
        assert truss_number_max(wheel_graph(5)) == 1

    def test_covers_all_edges(self):
        g = complete_graph(5)
        assert len(truss_decomposition(g)) == g.m

    def test_triangle_plus_tail(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        truss = truss_decomposition(g)
        assert truss[(0, 1)] == 1
        assert truss[(2, 3)] == 0
        assert truss[(3, 4)] == 0

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            truss_decomposition(path_graph(3).with_all_self_loops())


class TestDefinition:
    def test_k_truss_subgraph_property(self):
        """Edges with truss >= k must induce a subgraph where every
        surviving edge closes >= k triangles."""
        from repro.generators import preferential_attachment

        g = preferential_attachment(25, 3, seed=0)
        truss = truss_decomposition(g)
        for k in sorted(set(truss.values())):
            if k == 0:
                continue
            keep = [(u, v) for (u, v), t in truss.items() if t >= k]
            sub = Graph.from_edges(g.n, keep)
            adj = [set(sub.neighbors(v).tolist()) for v in range(sub.n)]
            for u, v in keep:
                assert len(adj[u] & adj[v]) >= k


class TestRemarkOneContrast:
    """The paper's point: truss ground truth is easy, wing ground truth
    is not -- side by side on the same product."""

    def test_bipartite_product_truss_is_known_at_generation(self):
        bk = make_bipartite_product(
            cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR
        )
        C = bk.materialize()
        # Ground truth from theory: bipartite => triangle-free => truss 0.
        assert truss_number_max(C) == 0

    def test_same_product_has_nonzero_wings(self):
        from repro.analytics import peel_wing_numbers

        bk = make_bipartite_product(
            cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR
        )
        C = bk.materialize_bipartite()
        # Rem. 1: squares are unavoidable, so wings are not trivially 0.
        assert peel_wing_numbers(C.graph.adj).max_wing > 0

    def test_nonbipartite_product_truss_from_factor_structure(self):
        """Triangle-full general products: the per-edge triangle formula
        Δ_C = Δ_A ⊗ Δ_B seeds truss peeling exactly."""
        from repro.analytics import edge_triangles
        from repro.kronecker import product_edge_triangles

        A = complete_graph(4)
        B = wheel_graph(5)
        C = kron_graph([A, B])
        predicted = product_edge_triangles(A, B)
        assert np.array_equal(predicted.toarray(), edge_triangles(C).toarray())
