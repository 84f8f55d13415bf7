"""Tests: the paper's §I GraphBLAS formulas and the counters built on them.

§I writes every quantity with Kronecker products, Hadamard products,
diagonals and reductions.  Those forms live on ``scipy.sparse`` in the
referees: :class:`~repro.refcheck.spgemm.FactorStats` (``A² = A @ A``,
``diag(A⁴)`` as row sums of ``A²∘A²``, ``A³∘A`` at the edges) and the
printed product references ``Σ sign · left ⊗ right``.  The direct
counter (``vertex_squares_matrix``, ``edge_squares_matrix``,
``global_squares``) finishes the same Def. 8/9 identities on the
numpy walk tables.  Each is checked here against an independent count.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analytics import edge_squares_matrix, global_squares, vertex_squares_matrix
from repro.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
)
from repro.kronecker import (
    Assumption,
    global_squares_product,
    make_bipartite_product,
    vertex_squares_product,
)
from repro.refcheck import brute
from repro.refcheck.printed import vertex_squares_product_reference
from repro.refcheck.spgemm import FactorStats

from tests.strategies import connected_graphs


class TestFactorQuantities:
    @pytest.mark.parametrize(
        "graph",
        [cycle_graph(6), complete_graph(5), grid_graph(3, 3), complete_bipartite(3, 4).graph],
    )
    def test_degree_and_walks(self, graph):
        stats = FactorStats.from_graph(graph)
        A = graph.adj.toarray().astype(np.int64)
        ones = np.ones(graph.n, dtype=np.int64)
        assert np.array_equal(stats.d, A @ ones)
        assert np.array_equal(stats.w2, A @ A @ ones)
        assert np.array_equal(stats.cw4, np.diag(np.linalg.matrix_power(A, 4)))

    @pytest.mark.parametrize(
        "graph",
        [cycle_graph(4), complete_graph(5), grid_graph(2, 4), complete_bipartite(2, 5).graph],
    )
    def test_vertex_squares(self, graph):
        assert np.array_equal(vertex_squares_matrix(graph), brute.squares_at_vertices(graph))

    @pytest.mark.parametrize(
        "graph",
        [cycle_graph(4), complete_graph(4), grid_graph(3, 3), complete_bipartite(3, 3).graph],
    )
    def test_edge_squares(self, graph):
        dia = edge_squares_matrix(graph)
        ref = brute.squares_at_edges(graph)
        assert dia.nnz == 2 * len(ref)
        assert all(dia[u, v] == dia[v, u] == c for (u, v), c in ref.items())

    def test_rejects_self_loops(self):
        g = path_graph(3).with_all_self_loops()
        with pytest.raises(ValueError, match="loop"):
            vertex_squares_matrix(g)
        with pytest.raises(ValueError, match="loop"):
            edge_squares_matrix(g)

    @given(connected_graphs(min_n=2, max_n=7))
    @settings(max_examples=25, deadline=None)
    def test_property_factor_squares(self, g):
        assert np.array_equal(vertex_squares_matrix(g), brute.squares_at_vertices(g))


class TestProductQuantities:
    @pytest.mark.parametrize("assumption", list(Assumption))
    def test_product_vertex_squares(self, assumption):
        if assumption is Assumption.NON_BIPARTITE_FACTOR:
            bk = make_bipartite_product(cycle_graph(5), path_graph(4), assumption)
        else:
            bk = make_bipartite_product(path_graph(4), path_graph(5), assumption)
        kron_form = vertex_squares_product_reference(bk)
        assert np.array_equal(kron_form, vertex_squares_product(bk))
        assert np.array_equal(kron_form, vertex_squares_matrix(bk.materialize()))

    def test_global(self, bk_assumption_i, bk_assumption_ii):
        for bk in (bk_assumption_i, bk_assumption_ii):
            total, rem = divmod(int(vertex_squares_product_reference(bk).sum()), 4)
            assert rem == 0
            assert total == global_squares_product(bk) == global_squares(bk.materialize())
