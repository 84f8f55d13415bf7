"""Tests for product vertex/edge sampling with ground truth."""

import numpy as np
import pytest

from repro.analytics import edge_squares_matrix, vertex_squares_matrix
from repro.generators import complete_bipartite, cycle_graph, path_graph
from repro.kronecker import Assumption, make_bipartite_product
from repro.kronecker.sampling import sample_edges, sample_vertices


@pytest.fixture(params=[Assumption.NON_BIPARTITE_FACTOR, Assumption.SELF_LOOPS_FACTOR])
def bk(request):
    if request.param is Assumption.NON_BIPARTITE_FACTOR:
        return make_bipartite_product(
            cycle_graph(5), complete_bipartite(2, 3).graph, request.param
        )
    return make_bipartite_product(complete_bipartite(2, 2).graph, path_graph(5), request.param)


class TestSampleVertices:
    def test_values_match_direct(self, bk):
        C = bk.materialize()
        s = vertex_squares_matrix(C)
        d = C.degrees()
        p, degrees, squares = sample_vertices(bk, 100, seed=0)
        assert np.array_equal(degrees, d[p])
        assert np.array_equal(squares, s[p])

    def test_in_range(self, bk):
        p, _, _ = sample_vertices(bk, 50, seed=1)
        assert p.min() >= 0 and p.max() < bk.n

    def test_deterministic(self, bk):
        a = sample_vertices(bk, 20, seed=5)
        b = sample_vertices(bk, 20, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_roughly_uniform(self, bk):
        p, _, _ = sample_vertices(bk, 4000, seed=2)
        counts = np.bincount(p, minlength=bk.n)
        expected = 4000 / bk.n
        # generous uniformity band (3-sigma-ish for Poisson counts)
        assert counts.max() < expected + 5 * np.sqrt(expected) + 5

    def test_invalid_k(self, bk):
        with pytest.raises(ValueError):
            sample_vertices(bk, 0)


class TestSampleEdges:
    def test_samples_are_edges_with_correct_counts(self, bk):
        C = bk.materialize()
        dia = edge_squares_matrix(C)
        p, q, squares = sample_edges(bk, 200, seed=3)
        for pp, qq, ss in zip(p.tolist(), q.tolist(), squares.tolist()):
            assert C.has_edge(pp, qq)
            assert dia[pp, qq] == ss

    def test_deterministic(self, bk):
        a = sample_edges(bk, 20, seed=7)
        b = sample_edges(bk, 20, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_covers_loop_block_edges(self):
        """Under 1(ii) the I_A (x) B entries must be reachable."""
        bk = make_bipartite_product(
            complete_bipartite(2, 2).graph, path_graph(5), Assumption.SELF_LOOPS_FACTOR
        )
        n_b = bk.B.graph.n
        p, q, _ = sample_edges(bk, 3000, seed=4)
        same_block = (p // n_b) == (q // n_b)
        assert same_block.any()

    def test_estimator_use_case(self, bk):
        """Mean sampled ◇ * nnz / 8 estimates the global square count
        (each square touches 8 directed entries)."""
        from repro.kronecker import global_squares_product

        _, _, squares = sample_edges(bk, 6000, seed=6)
        nnz = bk.chain.nnz
        estimate = squares.mean() * nnz / 8
        exact = global_squares_product(bk)
        assert abs(estimate - exact) / exact < 0.15
