"""Formula sensitivity (mutation) tests.

A ground-truth library is only trustworthy if its *test suite* would
catch a wrong formula.  These tests deliberately perturb each term of
the vertex/edge formulas -- sign flips, coefficient nudges, dropped
terms -- and assert the perturbed formula disagrees with direct
counting on a reference product.  If a mutation survives, the reference
product is too degenerate to pin that term, which is itself a bug in
the test fixtures.
"""

import numpy as np
import pytest

from repro.analytics import vertex_squares_matrix
from repro.generators import complete_bipartite, complete_graph, cycle_graph, path_graph
from repro.kronecker import Assumption, make_bipartite_product
from repro.kronecker.ground_truth import FactorStats
from repro.refcheck.printed import vertex_terms


def _reference_products():
    """Products rich enough that every formula term is load-bearing."""
    return [
        make_bipartite_product(
            complete_graph(4), complete_bipartite(2, 3).graph, Assumption.NON_BIPARTITE_FACTOR
        ),
        make_bipartite_product(
            complete_bipartite(2, 3).graph, path_graph(5), Assumption.SELF_LOOPS_FACTOR
        ),
    ]


def _mutated_vertex_squares(bk, mutate_index: int, mode: str) -> np.ndarray:
    stats_a = FactorStats.from_graph(bk.A)
    stats_b = FactorStats.from_graph(bk.B.graph)
    terms = vertex_terms(stats_a, stats_b, bk.assumption)
    acc = np.zeros(stats_a.n * stats_b.n, dtype=np.int64)
    for idx, (sign, left, right) in enumerate(terms):
        if idx == mutate_index:
            if mode == "flip":
                sign = -sign
            elif mode == "drop":
                continue
            elif mode == "double":
                sign = 2 * sign
        acc += sign * np.kron(left, right)
    return acc  # intentionally unhalved-insensitive: compare 2*ref


@pytest.mark.parametrize("bk_index", [0, 1], ids=["assumption-i", "assumption-ii"])
@pytest.mark.parametrize("term", [0, 1, 2, 3], ids=["cw4", "d2", "w2", "d"])
@pytest.mark.parametrize("mode", ["flip", "drop", "double"])
def test_every_term_is_load_bearing(bk_index, term, mode):
    bk = _reference_products()[bk_index]
    ref = 2 * vertex_squares_matrix(bk.materialize())
    mutated = _mutated_vertex_squares(bk, term, mode)
    assert not np.array_equal(mutated, ref), (
        f"mutation ({term}, {mode}) undetected -- reference product too degenerate"
    )


@pytest.mark.parametrize("bk_index", [0, 1], ids=["assumption-i", "assumption-ii"])
def test_unmutated_formula_matches(bk_index):
    """Sanity: with no mutation the helper reproduces the reference."""
    bk = _reference_products()[bk_index]
    ref = 2 * vertex_squares_matrix(bk.materialize())
    clean = _mutated_vertex_squares(bk, mutate_index=-1, mode="flip")
    assert np.array_equal(clean, ref)


class TestOracleEdgeFormulaSensitivity:
    """Perturb the point-wise edge constants; direct counts must object."""

    def test_off_by_one_constant_detected(self):
        from repro.analytics import edge_squares_matrix

        bk = _reference_products()[0]
        C = bk.materialize()
        dia = edge_squares_matrix(C)
        from repro.kronecker import GroundTruthOracle

        oracle = GroundTruthOracle(bk)
        u, v = C.edge_arrays()
        # The real oracle agrees everywhere; "+1 everywhere" must not.
        mismatches = sum(
            1 for p, q in zip(u.tolist(), v.tolist()) if oracle.squares_at_edge(p, q) + 1 != dia[p, q]
        )
        assert mismatches == u.size

    def test_degree_term_detected(self):
        """Using d_i*d_l + d_j*d_k instead of d_i*d_k + d_j*d_l (an easy
        transposition slip) must disagree somewhere.

        Needs degree-irregular factors: on regular factors the
        transposition is invisible (d_i == d_j), which is why the
        reference here is wheel x biclique rather than K4 x biclique.
        """
        from repro.generators import wheel_graph

        bk = make_bipartite_product(
            wheel_graph(5), complete_bipartite(2, 3).graph, Assumption.NON_BIPARTITE_FACTOR
        )
        stats_a = FactorStats.from_graph(bk.A)
        stats_b = FactorStats.from_graph(bk.B.graph)
        from repro.analytics import edge_squares_matrix

        dia_ref = edge_squares_matrix(bk.materialize())
        d_a, d_b = stats_a.d, stats_b.d
        dia_a_m = stats_a.diamond
        dia_b_m = stats_b.diamond
        n_b = bk.B.graph.n
        ua, va = bk.A.edge_arrays()
        ub, vb = bk.B.graph.edge_arrays()
        disagreements = 0
        for i, j in zip(ua.tolist(), va.tolist()):
            for k, l in zip(ub.tolist(), vb.tolist()):
                w3a = dia_a_m[i, j] + d_a[i] + d_a[j] - 1
                w3b = dia_b_m[k, l] + d_b[k] + d_b[l] - 1
                wrong = 1 + w3a * w3b - d_a[i] * d_b[l] - d_a[j] * d_b[k]  # transposed!
                if wrong != dia_ref[i * n_b + k, j * n_b + l]:
                    disagreements += 1
        assert disagreements > 0
