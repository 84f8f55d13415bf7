"""Hypothesis fleet for the metamorphic relations (ISSUE 4 tentpole).

Each relation transforms the *input* with a known effect on the
*output*, so no reference implementation is needed — a violation
indicts the formula layer directly.  Factors are drawn through the
shared ``tests/strategies.py`` composites; permutations come from
``st.permutations``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph
from repro.kronecker import Assumption, make_bipartite_product
from repro.refcheck import (
    MetamorphicViolation,
    check_edge_deletion_monotonicity,
    check_edge_sum_consistency,
    check_factor_swap_vertex_symmetry,
    check_relabel_invariance,
    check_vertex_sum_consistency,
)
from repro.refcheck.printed import global_squares_from_stats

from tests.strategies import factor_pairs, products

SETTINGS = settings(max_examples=15, deadline=None)

BOTH_ASSUMPTIONS = [Assumption.NON_BIPARTITE_FACTOR, Assumption.SELF_LOOPS_FACTOR]


def _as_graph(factor):
    """factor_pairs yields Graph for A under 1(i), BipartiteGraph else."""
    return factor.graph if hasattr(factor, "graph") else factor


@pytest.mark.parametrize("assumption", BOTH_ASSUMPTIONS)
@given(data=st.data())
@SETTINGS
def test_relabel_invariance(assumption, data):
    A, B = data.draw(factor_pairs(assumption, max_a=4))
    A, B = _as_graph(A), _as_graph(B)
    perm_a = np.array(data.draw(st.permutations(range(A.n))), dtype=np.int64)
    perm_b = np.array(data.draw(st.permutations(range(B.n))), dtype=np.int64)
    check_relabel_invariance(A, B, assumption, perm_a, perm_b)


@given(data=st.data())
@SETTINGS
def test_factor_swap_vertex_symmetry(data):
    A, B = data.draw(factor_pairs(Assumption.NON_BIPARTITE_FACTOR, max_a=4))
    check_factor_swap_vertex_symmetry(_as_graph(A), _as_graph(B))


@pytest.mark.parametrize("assumption", BOTH_ASSUMPTIONS)
@given(data=st.data())
@SETTINGS
def test_edge_deletion_monotonicity(assumption, data):
    A, B = data.draw(factor_pairs(assumption, max_a=4))
    check_edge_deletion_monotonicity(_as_graph(A), _as_graph(B), assumption)


@pytest.mark.parametrize("assumption", BOTH_ASSUMPTIONS)
@given(data=st.data())
@SETTINGS
def test_sum_consistency(assumption, data):
    bk = data.draw(products(assumption, max_a=4))
    check_vertex_sum_consistency(bk)
    check_edge_sum_consistency(bk)


@pytest.mark.parametrize("assumption", BOTH_ASSUMPTIONS)
@given(data=st.data())
@SETTINGS
def test_stats_level_global_matches_product_level(assumption, data):
    from repro.kronecker.ground_truth import global_squares_product

    bk = data.draw(products(assumption, max_a=4))
    stats_a, stats_b = bk.factor_stats()
    assert global_squares_from_stats(stats_a, stats_b, assumption) == (
        global_squares_product(bk)
    )


class TestViolationsAreDetected:
    """The relations must actually *fail* on broken formulas —
    otherwise the fleet is vacuous."""

    def test_relabel_check_catches_label_dependent_counts(self, monkeypatch):
        # A "count" that depends on raw vertex labels is exactly the
        # bug class relabeling invariance exists to catch.
        from repro.refcheck import metamorphic as mm

        monkeypatch.setattr(
            mm, "vertex_squares_product", lambda bk: np.arange(bk.n, dtype=np.int64)
        )
        A = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        B = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(MetamorphicViolation, match="relabel"):
            mm.check_relabel_invariance(
                A, B, Assumption.NON_BIPARTITE_FACTOR,
                np.array([1, 2, 0]), np.array([0, 1]),
            )

    def test_sum_consistency_catches_perturbed_formulas(self):
        from repro.generators.classic import complete_bipartite, complete_graph
        from repro.refcheck.differ import _perturbation

        bk = make_bipartite_product(
            complete_graph(3), complete_bipartite(2, 2).graph,
            Assumption.NON_BIPARTITE_FACTOR,
        )
        # The β sign flip corrupts ◇ but not the vertex-term route used
        # for the global count, so the edge tiling identity must break.
        with _perturbation("beta-sign"):
            with pytest.raises(MetamorphicViolation, match="edge sum"):
                check_edge_sum_consistency(bk)
