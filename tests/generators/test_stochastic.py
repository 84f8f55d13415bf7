"""Tests for the stochastic generators: scale-free, Chung-Lu, R-MAT, BTER."""

import numpy as np
import pytest

from repro.generators import (
    bipartite_bter,
    bipartite_chung_lu,
    bipartite_rmat,
    powerlaw_weights,
    preferential_attachment,
    rmat,
    scale_free_bipartite_factor,
    scale_free_nonbipartite_factor,
)
from repro.generators.rmat import rmat_edge_arrays
from repro.graphs import is_bipartite, is_connected

#: sha256 over the CSR arrays and part masks of 39 seeded
#: ``scale_free_bipartite_factor`` outputs (see the pinning test).
SCALE_FREE_BIPARTITE_DIGEST = "d56c26f984b2d458235d86ebdb80285f557ddc2dc18b2032e7a36630bdaa6904"


class TestPreferentialAttachment:
    def test_sizes(self):
        g = preferential_attachment(40, 2, seed=0)
        assert g.n == 40

    def test_connected(self):
        for seed in range(5):
            assert is_connected(preferential_attachment(30, 2, seed=seed))

    def test_deterministic(self):
        a = preferential_attachment(25, 2, seed=7)
        b = preferential_attachment(25, 2, seed=7)
        assert a == b

    def test_heavy_tail(self):
        g = preferential_attachment(300, 2, seed=1)
        d = g.degrees()
        assert d.max() > 4 * np.median(d)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            preferential_attachment(3, 3)
        with pytest.raises(ValueError):
            preferential_attachment(0, 1)


class TestScaleFreeFactors:
    def test_nonbipartite_m2(self):
        g = scale_free_nonbipartite_factor(25, 2, seed=3)
        assert not is_bipartite(g)
        assert is_connected(g)

    def test_nonbipartite_tree_case(self):
        # m=1 grows a tree (bipartite); the helper must break it.
        g = scale_free_nonbipartite_factor(15, 1, seed=2)
        assert not is_bipartite(g)
        assert is_connected(g)

    def test_bipartite_factor(self):
        bg = scale_free_bipartite_factor(12, 18, 2, seed=4)
        assert is_bipartite(bg.graph)
        assert is_connected(bg.graph)
        assert bg.U.size == 12 and bg.W.size == 18

    def test_bipartite_factor_asymmetric_parts(self):
        bg = scale_free_bipartite_factor(3, 30, 2, seed=5)
        assert is_connected(bg.graph)

    def test_bipartite_factor_bad_args(self):
        with pytest.raises(ValueError):
            scale_free_bipartite_factor(5, 1, 2)  # nw < m

    def test_bipartite_factor_seeded_outputs_pinned(self):
        """Seeded outputs are pinned: the growth loop may get faster, but
        every seeded factor keeps its exact edges and parts."""
        import hashlib

        h = hashlib.sha256()
        cases = 0
        for nu, nw in ((1, 1), (1, 6), (3, 30), (12, 18), (40, 25)):
            for m in (1, 2, 3):
                for seed in (0, 1, 2):
                    if nw < m:
                        continue
                    bg = scale_free_bipartite_factor(nu, nw, m, seed=seed)
                    for a in (bg.graph.indptr, bg.graph.indices, bg.part):
                        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
                    cases += 1
        assert cases == 39
        assert h.hexdigest() == SCALE_FREE_BIPARTITE_DIGEST


class TestPowerlawWeights:
    def test_range(self):
        w = powerlaw_weights(1000, exponent=2.5, w_min=1.0, w_max=50.0, seed=0)
        assert w.min() >= 1.0
        assert w.max() <= 50.0

    def test_heavy_tail_shape(self):
        w = powerlaw_weights(5000, exponent=2.0, seed=1)
        assert np.mean(w) > np.median(w)  # right-skewed

    def test_deterministic(self):
        a = powerlaw_weights(10, seed=3)
        b = powerlaw_weights(10, seed=3)
        assert np.array_equal(a, b)

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            powerlaw_weights(10, exponent=1.0)


class TestChungLu:
    def test_parts(self):
        bg = bipartite_chung_lu(np.full(10, 3.0), np.full(20, 1.5), seed=0)
        assert bg.U.size == 10 and bg.W.size == 20

    def test_expected_degrees_tracked(self):
        # Averaged over vertices, realized degree ~ requested weight.
        target = 8.0
        bg = bipartite_chung_lu(np.full(100, target), np.full(100, target), seed=1)
        mean_deg = bg.graph.degrees().mean()
        assert abs(mean_deg - target) / target < 0.25

    def test_zero_weights_ok(self):
        weights = np.array([5.0, 0.0, 5.0])
        bg = bipartite_chung_lu(weights, np.full(4, 2.0), seed=2)
        assert bg.graph.degrees()[1] == 0

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            bipartite_chung_lu(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            bipartite_chung_lu(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            bipartite_chung_lu(np.ones((2, 2)), np.ones(3))

    def test_deterministic(self):
        w = np.full(15, 2.0)
        assert bipartite_chung_lu(w, w, seed=9).graph == bipartite_chung_lu(w, w, seed=9).graph


class TestRmat:
    def test_edge_arrays_in_range(self):
        r, c = rmat_edge_arrays(4, 6, 500, seed=0)
        assert r.min() >= 0 and r.max() < 16
        assert c.min() >= 0 and c.max() < 64

    def test_quadrant_probs_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            rmat_edge_arrays(3, 3, 10, a=0.5, b=0.5, c=0.5, d=0.5)

    def test_graph_sizes(self):
        g = rmat(6, 8, seed=1)
        assert g.n == 64
        assert not g.has_self_loops

    def test_skew_produces_hubs(self):
        g = rmat(9, 8, a=0.7, b=0.1, c=0.1, d=0.1, seed=2)
        d = g.degrees()
        assert d.max() > 5 * max(np.median(d), 1)

    def test_uniform_probs_flat(self):
        g = rmat(8, 8, a=0.25, b=0.25, c=0.25, d=0.25, seed=3)
        d = g.degrees()
        assert d.max() < 4 * d.mean() + 5

    def test_deterministic(self):
        assert rmat(5, 4, seed=11) == rmat(5, 4, seed=11)

    def test_bipartite_rmat(self):
        bg = bipartite_rmat(4, 6, 400, seed=4)
        assert bg.U.size == 16 and bg.W.size == 64
        assert is_bipartite(bg.graph)

    def test_zero_edges(self):
        bg = bipartite_rmat(2, 2, 0, seed=0)
        assert bg.m == 0


class TestBter:
    def test_parts(self):
        bg = bipartite_bter(np.full(30, 4.0), np.full(40, 3.0), seed=0)
        assert bg.U.size == 30 and bg.W.size == 40

    def test_blocks_inject_butterflies(self):
        from repro.analytics import global_squares

        d = np.full(40, 4.0)
        dense = bipartite_bter(d, d, block_size=8, rho=0.9, seed=1)
        sparse = bipartite_bter(d, d, block_size=8, rho=0.05, seed=1)
        assert global_squares(dense.graph) > global_squares(sparse.graph)

    def test_deterministic(self):
        d = np.full(20, 3.0)
        assert bipartite_bter(d, d, seed=5).graph == bipartite_bter(d, d, seed=5).graph

    def test_bad_args(self):
        with pytest.raises(ValueError):
            bipartite_bter(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            bipartite_bter(np.ones((2, 2)), np.ones(3))
        with pytest.raises(ValueError):
            bipartite_bter(np.ones(3), np.ones(3), rho=1.5)
