"""Tests: generator-side wing bounds vs the actual peel."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analytics import peel_wing_numbers
from repro.generators import complete_bipartite, cycle_graph, path_graph
from repro.graphs import Graph
from repro.kronecker import Assumption, make_bipartite_product
from repro.kronecker.wings import (
    certified_zero_wing_edges,
    max_wing_upper_bound,
    wing_upper_bounds,
)

from tests.strategies import connected_bipartite_graphs


def _bounds(bk) -> dict:
    """``{(p, q): bound}`` streamed from the product's chain."""
    return {
        (p, q): b
        for rows, cols, bounds in wing_upper_bounds(bk.chain)
        for p, q, b in zip(rows.tolist(), cols.tolist(), bounds.tolist())
    }


def _wing_map(bg):
    """Exact wing numbers keyed ``(min, max)`` in product vertex codes."""
    return peel_wing_numbers(bg.graph.adj).wing


class TestUpperBounds:
    @pytest.mark.parametrize(
        "A,B,assumption",
        [
            (cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR),
            (path_graph(4), path_graph(5), Assumption.SELF_LOOPS_FACTOR),
            (complete_bipartite(2, 2).graph, complete_bipartite(2, 3).graph, Assumption.SELF_LOOPS_FACTOR),
        ],
    )
    def test_wing_never_exceeds_support(self, A, B, assumption):
        bk = make_bipartite_product(A, B, assumption)
        C = bk.materialize_bipartite()
        bounds = _bounds(bk)
        wings = _wing_map(C)
        for (u, w), wing in wings.items():
            assert wing <= bounds[(u, w)]

    def test_max_bound_dominates_max_wing(self):
        bk = make_bipartite_product(
            complete_bipartite(2, 3).graph, complete_bipartite(2, 2).graph,
            Assumption.SELF_LOOPS_FACTOR,
        )
        C = bk.materialize_bipartite()
        assert peel_wing_numbers(C.graph.adj).max_wing <= max_wing_upper_bound(bk.chain)

    @given(connected_bipartite_graphs(max_side=3), connected_bipartite_graphs(max_side=3))
    @settings(max_examples=15, deadline=None)
    def test_property(self, A, B):
        bk = make_bipartite_product(A, B, Assumption.SELF_LOOPS_FACTOR)
        C = bk.materialize_bipartite()
        bounds = _bounds(bk)
        for (u, w), wing in _wing_map(C).items():
            assert wing <= bounds[(u, w)]


class TestCertifiedZeros:
    def test_zero_support_edges_have_zero_wing(self):
        # triangle+pendant x P2 has square-free edges (see validation battery).
        A = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        bk = make_bipartite_product(A, path_graph(2), Assumption.NON_BIPARTITE_FACTOR)
        zeros = certified_zero_wing_edges(bk.chain)
        assert zeros.shape[0] > 0
        C = bk.materialize_bipartite()
        wings = _wing_map(C)
        for p, q in zeros:
            assert wings[(min(int(p), int(q)), max(int(p), int(q)))] == 0

    def test_square_rich_product_has_no_certified_zeros(self):
        bk = make_bipartite_product(
            complete_bipartite(2, 2).graph, complete_bipartite(2, 2).graph,
            Assumption.SELF_LOOPS_FACTOR,
        )
        assert certified_zero_wing_edges(bk.chain).shape[0] == 0

    def test_max_bound_zero_for_squarefree_products(self):
        from repro.generators import star_graph

        # star x single edge: every product edge square-free.
        bk = make_bipartite_product(
            cycle_graph(3), path_graph(2), Assumption.NON_BIPARTITE_FACTOR
        )
        assert max_wing_upper_bound(bk.chain) == 0
        C = bk.materialize_bipartite()
        assert peel_wing_numbers(C.graph.adj).max_wing == 0
