"""Tests for the Fig-1 example factory and the Konect stand-in."""

import numpy as np
import pytest

from repro.analytics import global_squares
from repro.generators import konect_unicode_like
from repro.generators.examples import fig1_bottom_left, fig1_bottom_right, fig1_top, fig1_trio
from repro.generators.konect_like import UNICODE_PAPER_STATS
from repro.graphs import is_bipartite, is_connected
from repro.graphs.degree import powerlaw_slope


class TestFig1Examples:
    def test_trio_order(self):
        names = [c.name for c in fig1_trio()]
        assert names == ["top", "bottom-left", "bottom-right"]

    def test_top_factors_bipartite(self):
        case = fig1_top()
        assert is_bipartite(case.A) and is_bipartite(case.B)
        assert not case.expect_connected

    def test_bottom_left_factor_nonbipartite(self):
        case = fig1_bottom_left()
        assert not is_bipartite(case.A)
        assert case.expect_connected

    def test_bottom_right_has_all_loops(self):
        case = fig1_bottom_right()
        assert case.A.has_all_self_loops
        assert is_bipartite(case.A.without_self_loops())

    def test_all_factors_connected(self):
        for case in fig1_trio():
            assert is_connected(case.A)
            assert is_connected(case.B)


class TestKonectLike:
    def test_part_sizes_match_paper(self):
        bg = konect_unicode_like()
        assert bg.U.size == UNICODE_PAPER_STATS["n_u"]
        assert bg.W.size == UNICODE_PAPER_STATS["n_w"]

    def test_edge_count_close_to_paper(self):
        bg = konect_unicode_like()
        assert abs(bg.m - UNICODE_PAPER_STATS["edges"]) / UNICODE_PAPER_STATS["edges"] < 0.1

    def test_square_count_close_to_paper(self):
        bg = konect_unicode_like()
        squares = global_squares(bg.graph)
        assert abs(squares - UNICODE_PAPER_STATS["squares"]) / UNICODE_PAPER_STATS["squares"] < 0.15

    def test_heavy_tailed(self):
        bg = konect_unicode_like()
        assert powerlaw_slope(bg.graph) < -1.0
        d = bg.graph.degrees()
        assert d.max() > 20

    def test_deterministic_default_seed(self):
        assert konect_unicode_like().graph == konect_unicode_like().graph

    def test_different_seed_differs(self):
        assert konect_unicode_like(seed=1).graph != konect_unicode_like(seed=2).graph

    def test_bipartite(self):
        assert is_bipartite(konect_unicode_like().graph)
