"""Tests for the vertex 4-cycle formulas (Thms. 3 and 4, §III-B1).

Every formula is checked against independent direct counting on the
materialized product; the Thm. 4 case additionally refutes the paper's
printed signs (see DESIGN.md "Paper errata").
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analytics import global_squares, vertex_squares_matrix
from repro.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    scale_free_bipartite_factor,
    star_graph,
    wheel_graph,
)
from repro.kronecker import (
    Assumption,
    global_squares_product,
    make_bipartite_product,
    squares_if_square_free_factors,
    vertex_squares_product,
)
from repro.refcheck.spgemm import FactorStats

from tests.strategies import connected_bipartite_graphs, connected_nonbipartite_graphs


class TestFactorStats:
    def test_matches_direct_quantities(self):
        g = wheel_graph(6)
        stats = FactorStats.from_graph(g)
        assert np.array_equal(stats.d, g.degrees())
        assert np.array_equal(stats.w2, np.asarray(g.adj @ g.degrees()).ravel())
        assert np.array_equal(stats.s, vertex_squares_matrix(g))
        assert np.array_equal(stats.cw4, 2 * stats.s + stats.d**2 + stats.w2 - stats.d)

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="loop-free"):
            FactorStats.from_graph(path_graph(3).with_all_self_loops())

    def test_global_squares(self):
        assert FactorStats.from_graph(complete_bipartite(3, 3).graph).global_squares() == 9


class TestThm3:
    """Assumption 1(i): C = A (x) B, A non-bipartite."""

    @pytest.mark.parametrize(
        "A,B",
        [
            (cycle_graph(3), path_graph(2)),
            (cycle_graph(3), path_graph(5)),
            (cycle_graph(5), complete_bipartite(2, 3).graph),
            (complete_graph(4), path_graph(4)),
            (wheel_graph(5), complete_bipartite(2, 2).graph),
        ],
    )
    def test_deterministic_cases(self, A, B):
        bk = make_bipartite_product(A, B, Assumption.NON_BIPARTITE_FACTOR)
        C = bk.materialize()
        assert np.array_equal(vertex_squares_product(bk), vertex_squares_matrix(C))
        assert global_squares_product(bk) == global_squares(C)

    @given(connected_nonbipartite_graphs(max_n=5), connected_bipartite_graphs(max_side=3))
    @settings(max_examples=40, deadline=None)
    def test_property(self, A, B):
        bk = make_bipartite_product(A, B, Assumption.NON_BIPARTITE_FACTOR)
        C = bk.materialize()
        assert np.array_equal(vertex_squares_product(bk), vertex_squares_matrix(C))


class TestThm4:
    """Assumption 1(ii): C = (A + I) (x) B, both bipartite."""

    @pytest.mark.parametrize(
        "A,B",
        [
            (path_graph(2), path_graph(2)),
            (path_graph(3), path_graph(4)),
            (path_graph(4), star_graph(3)),
            (complete_bipartite(2, 2).graph, path_graph(3)),
            (complete_bipartite(2, 3).graph, complete_bipartite(2, 2).graph),
            (star_graph(4), cycle_graph(6)),
        ],
    )
    def test_deterministic_cases(self, A, B):
        bk = make_bipartite_product(A, B, Assumption.SELF_LOOPS_FACTOR)
        C = bk.materialize()
        assert np.array_equal(vertex_squares_product(bk), vertex_squares_matrix(C))
        assert global_squares_product(bk) == global_squares(C)

    @given(connected_bipartite_graphs(max_side=3), connected_bipartite_graphs(max_side=3))
    @settings(max_examples=40, deadline=None)
    def test_property(self, A, B):
        bk = make_bipartite_product(A, B, Assumption.SELF_LOOPS_FACTOR)
        C = bk.materialize()
        assert np.array_equal(vertex_squares_product(bk), vertex_squares_matrix(C))

    def test_scale_free_product(self):
        A = scale_free_bipartite_factor(8, 10, 2, seed=0)
        B = scale_free_bipartite_factor(6, 8, 2, seed=1)
        bk = make_bipartite_product(A, B, Assumption.SELF_LOOPS_FACTOR)
        C = bk.materialize_bipartite()
        assert global_squares(C.graph) == global_squares_product(bk)

    def test_paper_printed_signs_are_wrong(self):
        """The displayed Thm. 4 has `-(d_A+1)⊗d_B ... +(d_A+1)²⊗d_B²`;
        flipping our (Def.-8-consistent) signs must break the count --
        this pins the erratum."""
        A, B = path_graph(3), path_graph(4)
        bk = make_bipartite_product(A, B, Assumption.SELF_LOOPS_FACTOR)
        C = bk.materialize()
        stats_a = FactorStats.from_graph(A)
        stats_b = FactorStats.from_graph(B)
        ones = np.ones(A.n, dtype=np.int64)
        cw4_m = 2 * stats_a.s + stats_a.d**2 + stats_a.w2 + 5 * stats_a.d + ones
        d_m = stats_a.d + ones
        w2_m = stats_a.w2 + 2 * stats_a.d + ones
        paper_signs = (
            np.kron(cw4_m, stats_b.cw4)
            - np.kron(d_m, stats_b.d)               # paper's printed "-"
            - np.kron(w2_m, stats_b.w2)
            + np.kron(d_m * d_m, stats_b.d**2)      # paper's printed "+"
        )
        assert not np.array_equal(paper_signs // 2, vertex_squares_matrix(C))


class TestGlobalSublinear:
    def test_matches_vertex_sum(self, bk_assumption_i, bk_assumption_ii):
        for bk in (bk_assumption_i, bk_assumption_ii):
            s = vertex_squares_product(bk)
            assert global_squares_product(bk) == s.sum() // 4


class TestRemark1:
    def test_square_free_factors_still_produce_squares(self):
        """Rem. 1: both factors square-free, both with a degree-2 vertex
        -> the product has 4-cycles."""
        A = cycle_graph(3)   # square-free, degrees 2
        B = path_graph(3)    # square-free, centre degree 2
        count = squares_if_square_free_factors(A, B)
        assert count > 0
        bk = make_bipartite_product(A, B, Assumption.NON_BIPARTITE_FACTOR)
        assert count == global_squares(bk.materialize())

    def test_disjoint_edges_give_none(self):
        """The only escape Rem. 1 allows: all degrees <= 1."""
        from repro.graphs import Graph

        A = Graph.from_edges(2, [(0, 1)])
        B = Graph.from_edges(2, [(0, 1)])
        assert squares_if_square_free_factors(A, B) == 0

    def test_rejects_squarey_factors(self):
        with pytest.raises(ValueError, match="square-free"):
            squares_if_square_free_factors(cycle_graph(4), path_graph(3))
