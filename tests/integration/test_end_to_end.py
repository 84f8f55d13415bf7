"""Integration tests spanning the whole stack.

These reproduce the library's three headline workflows end-to-end:
building a validated product from raw factors, using ground truth to
validate an independent analytic (the paper's use case), and the §IV
unicode-scale experiment without materialization.
"""

import numpy as np
import pytest

from repro import (
    Assumption,
    GroundTruthOracle,
    complete_bipartite,
    cycle_graph,
    global_squares_product,
    konect_unicode_like,
    make_bipartite_product,
    path_graph,
    stream_edges,
)
from repro.analytics import approximate_butterflies, global_squares, vertex_squares_matrix
from repro.graphs import is_bipartite, is_connected
from repro.kronecker import vertex_squares_product


class TestValidationWorkflow:
    """The paper's §I pitch: ground truth validates analytics."""

    def test_butterfly_counter_validated_by_generator(self):
        bk = make_bipartite_product(
            cycle_graph(5), complete_bipartite(2, 3).graph, Assumption.NON_BIPARTITE_FACTOR
        )
        C = bk.materialize_bipartite()
        # Independent direct implementation vs generator ground truth.
        assert global_squares(C.graph) == global_squares_product(bk)
        assert np.array_equal(vertex_squares_matrix(C.graph), vertex_squares_product(bk))

    def test_broken_counter_is_caught(self):
        """A deliberately off-by-one 'implementation' must disagree --
        exactly the failure mode the paper says ground truth exposes."""
        bk = make_bipartite_product(
            cycle_graph(3), path_graph(4), Assumption.NON_BIPARTITE_FACTOR
        )
        C = bk.materialize_bipartite()
        buggy_count = global_squares(C.graph) + 1
        assert buggy_count != global_squares_product(bk)

    def test_approximate_counter_validated(self):
        bk = make_bipartite_product(
            complete_bipartite(3, 3).graph, complete_bipartite(2, 3).graph,
            Assumption.SELF_LOOPS_FACTOR,
        )
        C = bk.materialize()
        exact = global_squares_product(bk)
        est = approximate_butterflies(C, samples=4000, seed=0)
        assert abs(est - exact) / exact < 0.2


class TestUnicodeScaleWorkflow:
    """§IV at full synthetic scale, never materializing C."""

    def test_global_count_without_materialization(self, unicode_product):
        total = global_squares_product(unicode_product)
        assert total > 10**8

    def test_oracle_consistent_with_vector_formula(self, unicode_product):
        oracle = GroundTruthOracle(unicode_product)
        s = vertex_squares_product(unicode_product)
        rng = np.random.default_rng(0)
        for p in rng.integers(0, unicode_product.n, 50):
            assert oracle.squares_at_vertex(int(p)) == s[p]

    def test_streamed_sample_blocks_match_oracle(self, unicode_product):
        oracle = GroundTruthOracle(unicode_product)
        checked = 0
        for p, q, dia in stream_edges(unicode_product, attach_ground_truth=True):
            for pp, qq, dd in list(zip(p.tolist(), q.tolist(), np.asarray(dia).tolist()))[:5]:
                assert oracle.squares_at_edge(pp, qq) == dd
                checked += 1
            if checked >= 50:
                break
        assert checked >= 50

    def test_factor_squares_verified_directly(self, unicode_like):
        """Factor-level counts are small enough for a direct referee."""
        from repro.refcheck import brute

        g = unicode_like.graph
        assert np.array_equal(vertex_squares_matrix(g), brute.squares_at_vertices(g))


class TestMidsizeProductMaterialization:
    """A ~100k-edge product end-to-end, formulas vs direct counting."""

    @pytest.fixture(scope="class")
    def midsize(self):
        A = konect_unicode_like(seed=99)  # different draw, same profile
        # Use a small slice of it as factor to keep the product mid-size.
        import numpy as np

        keep = np.arange(120)
        sub = A.graph.subgraph(keep)
        B = complete_bipartite(3, 4)
        from repro.graphs import BipartiteGraph, bipartition

        colors, _ = bipartition(sub)
        bk = make_bipartite_product(
            BipartiteGraph(sub, colors.astype(bool)),
            B,
            Assumption.SELF_LOOPS_FACTOR,
            require_connected=False,
        )
        return bk

    def test_vertex_formula_at_scale(self, midsize):
        from repro.analytics import vertex_squares_matrix

        C = midsize.materialize()
        assert np.array_equal(vertex_squares_product(midsize), vertex_squares_matrix(C))

    def test_product_is_bipartite(self, midsize):
        assert is_bipartite(midsize.materialize())
