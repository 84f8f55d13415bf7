"""Tests for the figure-reproduction harness."""

import numpy as np
import pytest

from repro.experiments import (
    fig1_connectivity_table,
    fig2_closed_walk_identity,
    fig3_example_squares,
    fig4_edge_walk_identity,
    fig5_degree_vs_squares,
)
from repro.generators import cycle_graph, grid_graph, path_graph
from repro.kronecker import Assumption, make_bipartite_product


class TestFig1:
    def test_predictions_consistent(self):
        res = fig1_connectivity_table()
        assert len(res.rows) == 3
        assert all(r.consistent for r in res.rows)

    def test_top_disconnects_into_two(self):
        res = fig1_connectivity_table()
        top = res.rows[0]
        assert top.components == 2
        assert top.actual_bipartite

    def test_format_mentions_all_cases(self):
        text = fig1_connectivity_table().format()
        for name in ("top", "bottom-left", "bottom-right"):
            assert name in text


class TestFig2:
    @pytest.mark.parametrize("graph", [cycle_graph(7), grid_graph(3, 4), path_graph(6)])
    def test_identity_holds(self, graph):
        res = fig2_closed_walk_identity(graph)
        assert res.max_abs_error == 0
        assert res.n_checked == graph.n

    def test_format(self):
        assert "W4" in fig2_closed_walk_identity(cycle_graph(5)).format()


class TestFig3:
    def test_factors_square_free_products_not(self):
        res = fig3_example_squares()
        for row in res.rows:
            assert row.factor_squares_a == 0
            assert row.factor_squares_b == 0
            assert row.product_squares_formula == row.product_squares_brute
        # Remark 1 bites at least in the loop-augmented case.
        assert any(r.product_squares_formula > 0 for r in res.rows)

    def test_format(self):
        assert "Rem. 1" in fig3_example_squares().format()


class TestFig4:
    @pytest.mark.parametrize("graph", [cycle_graph(8), grid_graph(3, 3)])
    def test_identity_holds(self, graph):
        res = fig4_edge_walk_identity(graph)
        assert res.max_abs_error == 0
        assert res.n_checked == graph.adj.nnz

    def test_independent_of_the_matrix_form(self, monkeypatch, unicode_like):
        """Def. 9's ◇ is Fig. 4's identity solved for ◇, so the row must
        take ◇ from elsewhere: corrupting that name leaves it at 0."""
        from repro.analytics import edge_squares_matrix

        def off_by_one(graph):
            dia = edge_squares_matrix(graph)
            dia.data += 1
            return dia

        monkeypatch.setattr(
            "repro.experiments.figures.edge_squares_matrix", off_by_one, raising=False
        )
        assert fig4_edge_walk_identity(unicode_like.graph).max_abs_error == 0


class TestFig5:
    def test_series_shapes(self, unicode_product):
        res = fig5_degree_vs_squares(unicode_product)
        assert res.factor.degree.size == unicode_product.A.n
        assert res.product.degree.size == unicode_product.n

    def test_product_counts_match_direct_on_small_case(self):
        bk = make_bipartite_product(path_graph(3), path_graph(4), Assumption.SELF_LOOPS_FACTOR)
        res = fig5_degree_vs_squares(bk)
        from repro.analytics import vertex_squares_matrix

        assert np.array_equal(res.product.squares, vertex_squares_matrix(bk.materialize()))

    def test_binned_monotone_degree(self, unicode_product):
        res = fig5_degree_vs_squares(unicode_product)
        mids, meds = res.product.binned()
        assert np.all(np.diff(mids) > 0)
        assert mids.size >= 3

    def test_format_contains_both_series(self, unicode_product):
        text = fig5_degree_vs_squares(unicode_product).format()
        assert "factor" in text and "product" in text.lower()
