"""Chain-product wing bounds: streamed blocks, the mixed-radix
digit-probe batch, and pinned degenerate-input behavior.

The 2-factor CSR path is covered by ``test_wings.py``; this module is
the n-factor and edge-case counterpart.  Every streamed or probed value
is refereed against a literal set-intersection support count on the
materialized product.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.generators.classic import (
    complete_bipartite,
    complete_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.kronecker import Assumption, make_bipartite_product
from repro.kronecker.multifactor import KroneckerChain
from repro.kronecker.wings import (
    certified_zero_wing_edges,
    chain_wings_at_edges,
    max_wing_upper_bound,
    wing_upper_bounds,
)
from repro.refcheck import brute

CHAINS = {
    "path-biclique-path": [path_graph(3), complete_bipartite(1, 2).graph, path_graph(2)],
    "star-paths": [star_graph(3), path_graph(2), path_graph(2)],
    "biclique-star-path": [complete_bipartite(2, 2).graph, star_graph(2), path_graph(2)],
    "dense-triple": [complete_graph(3), complete_bipartite(2, 2).graph, star_graph(2)],
}


def _brute_supports(chain: KroneckerChain) -> dict:
    """Literal per-edge 4-cycle counts on the materialized product."""
    g = Graph(sp.csr_array(chain.materialize()))
    out = {}
    for (p, q), s in brute.squares_at_edges(g).items():
        out[(p, q)] = int(s)
        out[(q, p)] = int(s)
    return out


class TestChainStream:
    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_streamed_bounds_match_brute(self, name):
        chain = KroneckerChain.from_graphs(CHAINS[name])
        ref = _brute_supports(chain)
        entries = 0
        for p, q, b in wing_upper_bounds(chain, block_entries=64):
            assert p.shape == q.shape == b.shape
            assert b.dtype == np.int64
            for pp, qq, bb in zip(p.tolist(), q.tolist(), b.tolist()):
                assert ref[(pp, qq)] == bb, f"({pp}, {qq}) bound diverged from brute"
            entries += int(p.size)
        assert entries == chain.nnz, "stream did not cover every directed entry"

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_digit_probe_matches_stream(self, name):
        chain = KroneckerChain.from_graphs(CHAINS[name])
        for p, q, b in wing_upper_bounds(chain, block_entries=128):
            assert np.array_equal(chain_wings_at_edges(chain, p, q), b)

    def test_row_window_unions_to_full_stream(self):
        chain = KroneckerChain.from_graphs(CHAINS["star-paths"])
        full = {}
        for p, q, b in wing_upper_bounds(chain):
            for pp, qq, bb in zip(p.tolist(), q.tolist(), b.tolist()):
                full[(pp, qq)] = bb
        mid = chain.n // 2
        windowed = {}
        for lo, hi in ((0, mid), (mid, chain.n)):
            for p, q, b in wing_upper_bounds(chain, lo=lo, hi=hi, block_entries=32):
                assert (p >= lo).all() and (p < hi).all()
                for pp, qq, bb in zip(p.tolist(), q.tolist(), b.tolist()):
                    windowed[(pp, qq)] = bb
        assert windowed == full

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_max_bound_equals_streamed_max(self, name):
        chain = KroneckerChain.from_graphs(CHAINS[name])
        best = 0
        for _, _, b in wing_upper_bounds(chain):
            if b.size:
                best = max(best, int(b.max()))
        assert max_wing_upper_bound(chain) == best

    def test_certified_zeros_are_support_zero(self):
        # A chain of paths keeps pendant product edges on no 4-cycle at
        # all, so the Rem. 1 zero certificate is non-empty here.
        chain = KroneckerChain.from_graphs(
            [path_graph(3), star_graph(2), path_graph(2)]
        )
        zeros = certified_zero_wing_edges(chain)
        assert zeros.dtype == np.int64 and zeros.ndim == 2 and zeros.shape[1] == 2
        assert zeros.shape[0] > 0
        ref = _brute_supports(chain)
        listed = set(map(tuple, zeros.tolist()))
        for p, q in listed:
            assert ref[(p, q)] == 0
        # Completeness: every support-0 directed entry is certified.
        for (p, q), s in ref.items():
            if s == 0:
                assert (p, q) in listed


class TestChainQueryContract:
    def setup_method(self):
        self.chain = KroneckerChain.from_graphs(CHAINS["path-biclique-path"])

    def _an_edge(self):
        for p, q, _ in wing_upper_bounds(self.chain, block_entries=1):
            return int(p[0]), int(q[0])

    def _a_non_edge(self):
        ref = _brute_supports(self.chain)
        for p in range(self.chain.n):
            for q in range(self.chain.n):
                if (p, q) not in ref:
                    return p, q
        raise AssertionError("chain product is complete?")

    def test_non_edge_raises_with_pair_named(self):
        p, q = self._a_non_edge()
        with pytest.raises(ValueError, match=rf"\({p}, {q}\) is not an edge"):
            chain_wings_at_edges(self.chain, [p], [q])

    def test_non_edge_masks_to_sentinel(self):
        p, q = self._a_non_edge()
        ep, eq = self._an_edge()
        got = chain_wings_at_edges(
            self.chain, [p, ep], [q, eq], on_invalid="mask"
        )
        assert got[0] == -1
        assert got[1] == chain_wings_at_edges(self.chain, [ep], [eq])[0]

    def test_bad_on_invalid_rejected(self):
        ep, eq = self._an_edge()
        with pytest.raises(ValueError, match="on_invalid"):
            chain_wings_at_edges(self.chain, [ep], [eq], on_invalid="nope")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chain_wings_at_edges(self.chain, [0, 1], [0])

    def test_out_of_range_raises_index_error(self):
        with pytest.raises(IndexError):
            chain_wings_at_edges(self.chain, [self.chain.n], [0])
        with pytest.raises(IndexError):
            chain_wings_at_edges(self.chain, [-1], [0])

    def test_empty_batch(self):
        got = chain_wings_at_edges(self.chain, [], [])
        assert got.shape == (0,) and got.dtype == np.int64


class TestDegeneratePinning:
    """Pinned behavior on empty factors, isolated vertices, and
    single-edge products (satellite: explicit degenerate-input tests)."""

    def test_edgeless_factor_chain_is_empty_everywhere(self):
        chain = KroneckerChain.from_graphs([path_graph(3), Graph.empty(2)])
        assert chain.nnz == 0
        assert list(wing_upper_bounds(chain)) == []
        zeros = certified_zero_wing_edges(chain)
        assert zeros.shape == (0, 2) and zeros.dtype == np.int64
        assert max_wing_upper_bound(chain) == 0
        got = chain_wings_at_edges(chain, [], [])
        assert got.shape == (0,)
        with pytest.raises(ValueError):
            chain_wings_at_edges(chain, [0], [0])  # nothing is an edge

    def test_edgeless_factor_product(self):
        # An edgeless right factor kills every product edge even under
        # the derived-1(ii) self-loop construction.
        bk = make_bipartite_product(
            path_graph(3),
            Graph.empty(2),
            Assumption.SELF_LOOPS_FACTOR,
            require_connected=False,
        )
        bounds = sp.csr_array(wing_upper_bounds(bk))
        assert bounds.nnz == 0
        assert certified_zero_wing_edges(bk).shape == (0, 2)
        assert max_wing_upper_bound(bk) == 0

    def test_isolated_vertex_factor(self):
        # Vertex 2 of the left factor is isolated: its product rows
        # must simply be absent, not zero-certified.
        bk = make_bipartite_product(
            Graph.from_edges(3, [(0, 1)]),
            complete_bipartite(2, 2),
            Assumption.SELF_LOOPS_FACTOR,
            require_connected=False,
        )
        bounds = sp.csr_array(wing_upper_bounds(bk))
        coo = bounds.tocoo()
        C = bk.materialize()
        want = {}
        for (p, q), s in brute.squares_at_edges(Graph(C.adj)).items():
            want[(p, q)] = int(s)
            want[(q, p)] = int(s)
        got = {
            (int(p), int(q)): int(s)
            for p, q, s in zip(coo.row, coo.col, coo.data)
        }
        assert got == want

    def test_single_edge_factors_product(self):
        # P2 x P2 under derived 1(ii): the left-factor self-loops turn
        # the would-be matching into C4, so every edge lies on exactly
        # one 4-cycle — bound 1 everywhere, no certified zeros.  Pins
        # the self-loop construction, not plain kron.
        bk = make_bipartite_product(
            path_graph(2),
            path_graph(2),
            Assumption.SELF_LOOPS_FACTOR,
            require_connected=False,
        )
        bounds = sp.csr_array(wing_upper_bounds(bk))
        assert bounds.nnz == 8  # C4, both directions
        assert set(bounds.tocoo().data.tolist()) == {1}
        assert certified_zero_wing_edges(bk).shape == (0, 2)
        assert max_wing_upper_bound(bk) == 1

    def test_single_edge_factors_chain(self):
        # The chain is plain kron: P2 x P2 really is a perfect
        # matching, so everything is certified zero.
        chain = KroneckerChain.from_graphs([path_graph(2), path_graph(2)])
        assert chain.nnz == 4
        zeros = certified_zero_wing_edges(chain)
        assert zeros.shape[0] == 4  # every directed entry
        assert max_wing_upper_bound(chain) == 0
        for _, _, b in wing_upper_bounds(chain):
            assert (b == 0).all()

    def test_stream_kwargs_rejected_for_two_factor_products(self):
        bk = make_bipartite_product(
            complete_graph(3),
            complete_bipartite(1, 2),
            Assumption.NON_BIPARTITE_FACTOR,
        )
        for kwargs in ({"lo": 0}, {"hi": 4}, {"block_entries": 8}):
            with pytest.raises(TypeError, match="KroneckerChain"):
                wing_upper_bounds(bk, **kwargs)
            with pytest.raises(TypeError, match="KroneckerChain"):
                certified_zero_wing_edges(bk, **kwargs)
