"""Regression tests: ``squares_at_edges(on_invalid="mask")`` on
degenerate inputs (ISSUE 4 satellite).

The mask path short-circuits on ``valid.all()`` and zeroes invalid
slots in place; these tests pin its behaviour on the inputs where that
fast path is most likely to misfire: empty factors (no edges at all),
isolated vertices (valid codes, no incident edges), the smallest
possible product with an edge, and empty query batches.
"""

import numpy as np
import pytest

from repro.generators import complete_graph, path_graph
from repro.graphs import Graph
from repro.kronecker import Assumption, GroundTruthOracle, make_bipartite_product
from repro.refcheck import brute


def _product(A, B, assumption):
    return make_bipartite_product(A, B, assumption, require_connected=False)


def _oracle(A, B, assumption):
    return GroundTruthOracle(_product(A, B, assumption))


class TestEmptyFactor:
    """B (or A) with no edges: every query pair is a non-edge."""

    def test_all_masked_on_empty_right_factor(self):
        oracle = _oracle(complete_graph(3), Graph.empty(3), Assumption.NON_BIPARTITE_FACTOR)
        ps = np.arange(9, dtype=np.int64)
        qs = (ps + 1) % 9
        out = oracle.squares_at_edges(ps, qs, on_invalid="mask")
        assert out.dtype == np.int64
        assert np.array_equal(out, np.full(9, -1))

    def test_raise_mode_still_raises_on_empty_factor(self):
        oracle = _oracle(complete_graph(3), Graph.empty(3), Assumption.NON_BIPARTITE_FACTOR)
        with pytest.raises(ValueError, match="not an edge"):
            oracle.squares_at_edges([0], [4], on_invalid="raise")

    def test_empty_left_factor_under_self_loops(self):
        # Under 1(ii) the diagonal blocks of M = A + I exist even for an
        # edgeless A, so (γ(i,k), γ(i,l)) is an edge iff (k,l) ∈ E_B.
        oracle = _oracle(Graph.empty(2), path_graph(3), Assumption.SELF_LOOPS_FACTOR)
        # p = γ(0, 0), q = γ(0, 1): loop block 0, B edge (0, 1) -> edge.
        same_block = oracle.squares_at_edges([0], [1], on_invalid="mask")
        assert same_block[0] >= 0
        # p = γ(0, 0), q = γ(1, 1): off-diagonal A entry absent -> masked.
        cross_block = oracle.squares_at_edges([0], [4], on_invalid="mask")
        assert cross_block[0] == -1


class TestIsolatedVertices:
    """Isolated vertices are valid codes whose every pair is a non-edge."""

    @pytest.fixture
    def product(self):
        B = Graph.from_edges(3, [(0, 1)])  # vertex 2 isolated
        return _product(complete_graph(3), B, Assumption.NON_BIPARTITE_FACTOR)

    @pytest.fixture
    def oracle(self, product):
        return GroundTruthOracle(product)

    def test_isolated_endpoint_masked_not_crashed(self, oracle):
        # q = γ(j, 2) touches the isolated B vertex: never an edge.
        ps = np.array([0, 0, 1], dtype=np.int64)
        qs = np.array([2, 5, 8], dtype=np.int64)
        out = oracle.squares_at_edges(ps, qs, on_invalid="mask")
        assert np.array_equal(out, np.full(3, -1))

    def test_mixed_batch_masks_only_invalid_slots(self, product, oracle):
        C = product.materialize()
        u, v = C.edge_arrays()
        dia = brute.squares_at_edges(C)
        # Interleave real edges with isolated-vertex pairs.
        ps = np.array([u[0], 0, u[1], 1], dtype=np.int64)
        qs = np.array([v[0], 2, v[1], 5], dtype=np.int64)
        out = oracle.squares_at_edges(ps, qs, on_invalid="mask")
        assert out[0] == dia[(min(u[0], v[0]), max(u[0], v[0]))]
        assert out[2] == dia[(min(u[1], v[1]), max(u[1], v[1]))]
        assert out[1] == -1 and out[3] == -1


class TestSingleEdgeProduct:
    """The smallest product with an edge: 1 ⊗ P_2 under Assumption 1(ii)."""

    def test_single_edge_product_values(self):
        bk = _product(Graph.empty(1), path_graph(2), Assumption.SELF_LOOPS_FACTOR)
        oracle = GroundTruthOracle(bk)
        C = bk.materialize()
        assert C.m == 1
        out = oracle.squares_at_edges([0, 1, 0], [1, 0, 0], on_invalid="mask")
        # The lone edge carries 0 squares; (0, 0) is not an edge.
        assert out.tolist() == [0, 0, -1]

    def test_matches_brute_force(self):
        bk = _product(Graph.empty(1), path_graph(2), Assumption.SELF_LOOPS_FACTOR)
        oracle = GroundTruthOracle(bk)
        C = bk.materialize()
        dia = brute.squares_at_edges(C)
        u, v = C.edge_arrays()
        out = oracle.squares_at_edges(u, v, on_invalid="mask")
        for p, q, val in zip(u.tolist(), v.tolist(), out.tolist()):
            assert val == dia[(min(p, q), max(p, q))]


class TestEmptyBatch:
    def test_empty_query_batch_both_modes(self):
        oracle = _oracle(complete_graph(3), path_graph(3), Assumption.NON_BIPARTITE_FACTOR)
        empty = np.empty(0, dtype=np.int64)
        for mode in ("mask", "raise"):
            out = oracle.squares_at_edges(empty, empty, on_invalid=mode)
            assert out.shape == (0,)
            assert out.dtype == np.int64

    def test_bad_mode_rejected(self):
        oracle = _oracle(complete_graph(3), path_graph(3), Assumption.NON_BIPARTITE_FACTOR)
        with pytest.raises(ValueError, match="on_invalid"):
            oracle.squares_at_edges([0], [1], on_invalid="ignore")
