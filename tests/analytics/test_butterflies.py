"""Butterfly (bipartite 4-cycle) counting with the general counters.

On a bipartite graph every 4-cycle is a butterfly, so the Def. 8/9
matrix identities count butterflies directly on ``bg.graph``.  These
tests hold them to the brute-force referee on bipartite inputs, and
check that the ``U x W`` block of the per-edge counts keeps the
biadjacency pattern.  Known values on complete bipartite graphs live in
``test_fourcycles.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analytics import edge_squares_matrix, global_squares, vertex_squares_matrix
from repro.generators import complete_bipartite
from repro.refcheck import brute

from tests.strategies import connected_bipartite_graphs, small_bipartite_corpus


def _agrees_with_referee(bg):
    assert global_squares(bg.graph) == brute.global_squares(bg.graph)
    assert np.array_equal(vertex_squares_matrix(bg.graph), brute.squares_at_vertices(bg.graph))


class TestAgreementWithGeneralCounters:
    @pytest.mark.parametrize("bg", small_bipartite_corpus(), ids=lambda b: f"u{b.U.size}w{b.W.size}m{b.m}")
    def test_corpus(self, bg):
        _agrees_with_referee(bg)

    @given(connected_bipartite_graphs(max_side=5))
    @settings(max_examples=50, deadline=None)
    def test_property_vertex_and_global(self, bg):
        _agrees_with_referee(bg)

    @given(connected_bipartite_graphs(max_side=5))
    @settings(max_examples=50, deadline=None)
    def test_property_edge_counts(self, bg):
        """The ``U x W`` block of ◇ matches the referee on every edge."""
        block = edge_squares_matrix(bg.graph)[bg.U][:, bg.W].tocoo()
        ref = brute.squares_at_edges(bg.graph)
        assert block.nnz == bg.m
        for r, c, v in zip(block.row, block.col, block.data):
            u, w = int(bg.U[r]), int(bg.W[c])
            assert ref[(min(u, w), max(u, w))] == v

    def test_edge_pattern_matches_biadjacency(self):
        bg = complete_bipartite(1, 3)  # butterfly-free but has edges
        block = edge_squares_matrix(bg.graph)[bg.U][:, bg.W]
        assert block.nnz == bg.biadjacency().nnz
        assert np.all(block.data == 0)
