"""Tests for degree-distribution, triangle, and multi-factor ground truth."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from repro.analytics import (
    edge_squares_matrix,
    edge_triangles,
    global_squares,
    global_triangles,
    vertex_squares_matrix,
    vertex_triangles,
)
from repro.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    wheel_graph,
)
from repro.graphs import Graph
from repro.kronecker import (
    Assumption,
    KroneckerChain,
    make_bipartite_product,
    product_degree_histogram,
    product_degree_summary,
    product_edge_triangles,
    product_global_triangles,
    product_vertex_triangles,
)
from repro.kronecker.ground_truth import FactorStats
from repro.refcheck.printed import (
    combine_stats,
    multi_kronecker_global_squares,
    multi_kronecker_stats,
)

from tests.strategies import connected_graphs


class TestDegreeHistogram:
    @pytest.mark.parametrize(
        "A,B,assumption",
        [
            (cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR),
            (star_graph(4), path_graph(5), Assumption.SELF_LOOPS_FACTOR),
            (complete_bipartite(2, 3).graph, complete_bipartite(2, 2).graph, Assumption.SELF_LOOPS_FACTOR),
        ],
    )
    def test_matches_materialized(self, A, B, assumption):
        bk = make_bipartite_product(A, B, assumption)
        degrees, counts = product_degree_histogram(bk)
        rv, rc = np.unique(bk.materialize().degrees(), return_counts=True)
        assert np.array_equal(degrees, rv)
        assert np.array_equal(counts, rc)

    def test_counts_sum_to_n(self, unicode_product):
        _, counts = product_degree_histogram(unicode_product)
        assert counts.sum() == unicode_product.n

    def test_summary_fields(self):
        bk = make_bipartite_product(cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR)
        summary = product_degree_summary(bk)
        d = bk.materialize().degrees()
        assert summary.n == d.size
        assert summary.d_min == d.min()
        assert summary.d_max == d.max()
        assert summary.d_mean == pytest.approx(d.mean())

    def test_prime_degree_quirk(self):
        """Star x star: hubs multiply, so big prime degrees need a
        degree-1 partner; K13-leaves through degree-1 vertices do occur,
        but pure hub-hub degrees are composite."""
        A = star_graph(12).with_all_self_loops().without_self_loops()
        bk = make_bipartite_product(
            wheel_graph(12), star_graph(13), Assumption.NON_BIPARTITE_FACTOR
        )
        summary = product_degree_summary(bk, prime_threshold=100)
        degrees, _ = product_degree_histogram(bk)
        # max degree = 12 (wheel hub) * 13 (star hub) = 156, composite.
        assert summary.d_max == 156
        assert summary.prime_degrees_above_threshold == 0

    def test_format(self):
        bk = make_bipartite_product(cycle_graph(3), path_graph(2), Assumption.NON_BIPARTITE_FACTOR)
        assert "d_max" in product_degree_summary(bk).format()


class TestProductTriangles:
    def test_general_product_matches_direct(self):
        A, B = cycle_graph(3), cycle_graph(5)
        C = Graph(sp.kron(A.adj, B.adj))
        assert np.array_equal(product_vertex_triangles(A, B), vertex_triangles(C))
        assert product_global_triangles(A, B) == global_triangles(C)
        assert np.array_equal(
            product_edge_triangles(A, B).toarray(), edge_triangles(C).toarray()
        )

    def test_dense_factors(self):
        A, B = complete_graph(4), complete_graph(4)
        C = Graph(sp.kron(A.adj, B.adj))
        assert product_global_triangles(A, B) == global_triangles(C)

    def test_bipartite_factor_kills_triangles(self):
        # Any product with a bipartite factor is triangle-free.
        assert product_global_triangles(cycle_graph(3), path_graph(5)) == 0
        assert np.all(product_vertex_triangles(complete_graph(5), cycle_graph(4)) == 0)

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="loop-free"):
            product_vertex_triangles(path_graph(3).with_all_self_loops(), cycle_graph(3))

    @given(connected_graphs(min_n=3, max_n=6), connected_graphs(min_n=3, max_n=5))
    @settings(max_examples=25, deadline=None)
    def test_property(self, A, B):
        C = Graph(sp.kron(A.adj, B.adj))
        assert np.array_equal(product_vertex_triangles(A, B), vertex_triangles(C))


class TestMultiFactor:
    """The chain engine and the printed ``combine_stats`` fold, each
    against counts on the materialized product."""

    def test_combine_stats_matches_direct(self):
        A, B = cycle_graph(3), path_graph(4)
        combined = combine_stats(FactorStats.from_graph(A), FactorStats.from_graph(B))
        C = Graph(sp.kron(A.adj, B.adj))
        assert np.array_equal(combined.d, C.degrees())
        assert np.array_equal(combined.s, vertex_squares_matrix(C))
        assert np.array_equal(combined.diamond.toarray(), edge_squares_matrix(C).toarray())

    def test_three_factors(self):
        factors = [cycle_graph(3), path_graph(3), star_graph(2)]
        stats = multi_kronecker_stats(factors)
        C = Graph(sp.kron(sp.kron(factors[0].adj, factors[1].adj), factors[2].adj))
        assert np.array_equal(stats.s, vertex_squares_matrix(C))
        assert multi_kronecker_global_squares(factors) == global_squares(C)
        chain = KroneckerChain.from_graphs(factors)
        assert np.array_equal(chain.vertex_squares(np.arange(C.n)), stats.s)
        coo = edge_squares_matrix(C).tocoo()
        values, valid = chain.edge_squares(coo.row, coo.col)
        assert valid.all() and np.array_equal(values, coo.data)
        assert chain.global_squares() == global_squares(C)

    def test_four_factors_global(self):
        factors = [path_graph(2), path_graph(3), cycle_graph(3), path_graph(2)]
        adj = factors[0].adj
        for g in factors[1:]:
            adj = sp.kron(adj, g.adj)
        C = Graph(adj)
        assert multi_kronecker_global_squares(factors) == global_squares(C)
        assert KroneckerChain.from_graphs(factors).global_squares() == global_squares(C)

    def test_associativity_of_combination(self):
        """(A ∘ B) ∘ C stats == A ∘ (B ∘ C) stats (fold order must not
        matter, mirroring Kronecker associativity)."""
        a = FactorStats.from_graph(cycle_graph(3))
        b = FactorStats.from_graph(path_graph(3))
        c = FactorStats.from_graph(path_graph(2))
        left = combine_stats(combine_stats(a, b), c)
        right = combine_stats(a, combine_stats(b, c))
        assert np.array_equal(left.s, right.s)
        assert np.array_equal(left.d, right.d)
        assert np.array_equal(left.diamond.toarray(), right.diamond.toarray())

    def test_single_factor(self):
        g = complete_bipartite(2, 3).graph
        assert multi_kronecker_global_squares([g]) == global_squares(g)
        stats = multi_kronecker_stats([g])
        assert np.array_equal(stats.s, vertex_squares_matrix(g))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            multi_kronecker_stats([])
        with pytest.raises(ValueError):
            multi_kronecker_global_squares([])

    @given(connected_graphs(min_n=2, max_n=4), connected_graphs(min_n=2, max_n=4))
    @settings(max_examples=25, deadline=None)
    def test_property_pairwise(self, A, B):
        combined = combine_stats(FactorStats.from_graph(A), FactorStats.from_graph(B))
        C = Graph(sp.kron(A.adj, B.adj))
        assert np.array_equal(combined.s, vertex_squares_matrix(C))
        chain = KroneckerChain.from_graphs([A, B])
        assert np.array_equal(chain.vertex_squares(np.arange(C.n)), combined.s)
        assert np.array_equal(combined.cw4, 2 * combined.s + combined.d**2 + combined.w2 - combined.d)
