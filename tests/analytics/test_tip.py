"""Tests for the k-tip (vertex-wing) decomposition."""

import numpy as np
import pytest

from repro.analytics import vertex_squares_matrix
from repro.analytics.tip import tip_decomposition, tip_number_max
from repro.generators import bipartite_chung_lu, complete_bipartite, path_graph
from repro.graphs import BipartiteGraph


def _definition_check(bg: BipartiteGraph, tips: dict[int, int], side: str):
    """For each k, the side-vertices with tip >= k must induce a
    subgraph where every such vertex has >= k butterflies."""
    primary = bg.U if side == "U" else bg.W
    other = bg.W if side == "U" else bg.U
    for k in sorted(set(tips.values())):
        if k == 0:
            continue
        keep = np.array([v for v in primary if tips[int(v)] >= k], dtype=np.int64)
        if keep.size == 0:
            continue
        members = np.concatenate((keep, other))
        sub = bg.graph.subgraph(np.sort(members))
        vb = vertex_squares_matrix(sub)
        # map kept primary vertices into subgraph ids
        sorted_members = np.sort(members)
        for v in keep:
            local = int(np.searchsorted(sorted_members, v))
            assert vb[local] >= k, f"k={k}, vertex {v} has only {vb[local]} butterflies"


class TestKnownValues:
    def test_k33_uniform(self):
        bg = complete_bipartite(3, 3)
        tips = tip_decomposition(bg, "U")
        assert set(tips.values()) == {6}
        assert tip_number_max(bg, "W") == 6

    def test_k24_sides_differ(self):
        bg = complete_bipartite(2, 4)
        # U vertices (2 of them) sit in all 6 butterflies; W vertices in 3.
        assert set(tip_decomposition(bg, "U").values()) == {6}
        assert set(tip_decomposition(bg, "W").values()) == {3}

    def test_butterfly_free(self):
        bg = BipartiteGraph(path_graph(6))
        assert tip_number_max(bg, "U") == 0
        assert all(v == 0 for v in tip_decomposition(bg, "W").values())

    def test_covers_all_side_vertices(self):
        bg = complete_bipartite(3, 5)
        assert len(tip_decomposition(bg, "U")) == 3
        assert len(tip_decomposition(bg, "W")) == 5

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            tip_decomposition(complete_bipartite(2, 2), side="X")


class TestStructure:
    def test_pendant_block(self):
        # K_{2,2} plus a U vertex attached by one edge: pendant has tip 0.
        X = np.array([[1, 1], [1, 1], [1, 0]])
        bg = BipartiteGraph.from_biadjacency(X)
        tips = tip_decomposition(bg, "U")
        assert tips[0] >= 1 and tips[1] >= 1
        assert tips[2] == 0

    def test_nested_blocks(self):
        # disjoint K_{3,3} and K_{2,2}: tips 6 and 1 respectively.
        X = np.zeros((5, 5), dtype=int)
        X[:3, :3] = 1
        X[3:, 3:] = 1
        bg = BipartiteGraph.from_biadjacency(X)
        tips = tip_decomposition(bg, "U")
        assert {tips[0], tips[1], tips[2]} == {6}
        assert {tips[3], tips[4]} == {1}

    def test_definition_on_random_graphs(self):
        for seed in range(3):
            bg = bipartite_chung_lu(np.full(8, 3.0), np.full(8, 3.0), seed=seed)
            for side in ("U", "W"):
                _definition_check(bg, tip_decomposition(bg, side), side)

    def test_initial_count_upper_bounds_tip(self):
        bg = bipartite_chung_lu(np.full(10, 3.0), np.full(12, 3.0), seed=7)
        vb = vertex_squares_matrix(bg.graph)
        tips = tip_decomposition(bg, "U")
        for v, t in tips.items():
            assert t <= vb[v]
