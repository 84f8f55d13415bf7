"""Tests for the FactorStats cache on BipartiteKronecker."""

import numpy as np

from repro.generators import cycle_graph, path_graph
from repro.kronecker import (
    Assumption,
    GroundTruthOracle,
    global_squares_product,
    make_bipartite_product,
    vertex_squares_product,
)


class TestFactorStatsCache:
    def test_same_objects_returned(self):
        bk = make_bipartite_product(cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR)
        a1, b1 = bk.factor_stats()
        a2, b2 = bk.factor_stats()
        assert a1 is a2 and b1 is b2

    def test_oracle_shares_cached_stats(self):
        bk = make_bipartite_product(path_graph(4), path_graph(5), Assumption.SELF_LOOPS_FACTOR)
        stats_a, stats_b = bk.factor_stats()
        oracle = GroundTruthOracle(bk)
        assert oracle.stats_a is stats_a
        assert oracle.stats_b is stats_b

    def test_formula_results_unchanged_by_cache(self):
        """Cached and freshly-computed paths must agree exactly."""
        from repro.kronecker.ground_truth import FactorStats, _vertex_squares_from_stats

        bk = make_bipartite_product(cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR)
        cached = vertex_squares_product(bk)
        fresh = _vertex_squares_from_stats(
            FactorStats.from_graph(bk.A), FactorStats.from_graph(bk.B.graph), bk.assumption
        )
        assert np.array_equal(cached, fresh)

    def test_cache_is_per_handle(self):
        bk1 = make_bipartite_product(cycle_graph(3), path_graph(3), Assumption.NON_BIPARTITE_FACTOR)
        bk2 = make_bipartite_product(cycle_graph(3), path_graph(3), Assumption.NON_BIPARTITE_FACTOR)
        assert bk1.factor_stats()[0] is not bk2.factor_stats()[0]

    def test_repeated_global_calls_consistent(self):
        bk = make_bipartite_product(cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR)
        assert global_squares_product(bk) == global_squares_product(bk)


def _as_triple(mat):
    from repro.kronecker.ground_truth import CSRTriple

    return CSRTriple(mat.data, mat.indices, mat.indptr)


def _unsorted_copy(mat):
    """The same CSR matrix with each row's column indices reversed."""
    import scipy.sparse as sp

    indices, data = mat.indices.copy(), mat.data.copy()
    for i in range(mat.shape[0]):
        lo, hi = mat.indptr[i], mat.indptr[i + 1]
        indices[lo:hi] = indices[lo:hi][::-1]
        data[lo:hi] = data[lo:hi][::-1]
    out = sp.csr_array((data, indices, mat.indptr.copy()), shape=mat.shape)
    assert not out.has_sorted_indices
    return out


class TestCSRTripleStats:
    """Loaded statistics hold CSR triples, not scipy matrices; every
    query-path reader must give the same answers on both."""

    def _stats(self, stats, convert):
        from dataclasses import replace

        return replace(stats, adj=convert(stats.adj), diamond=convert(stats.diamond))

    def _assert_same_index(self, got, want):
        from dataclasses import fields

        for f in fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert np.array_equal(a, b), f.name
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype, f.name

    def test_edge_index_from_triples_matches_scipy(self):
        from repro.kronecker.kernels import EdgeIndex

        for graph, assumption in (
            (cycle_graph(5), Assumption.NON_BIPARTITE_FACTOR),
            (path_graph(6), Assumption.SELF_LOOPS_FACTOR),
        ):
            bk = make_bipartite_product(graph, path_graph(3), assumption)
            for stats in bk.factor_stats():
                want = EdgeIndex.from_stats(stats)
                got = EdgeIndex.from_stats(self._stats(stats, _as_triple))
                self._assert_same_index(got, want)

    def test_unsorted_column_indices(self):
        from repro.kronecker.kernels import EdgeIndex

        bk = make_bipartite_product(cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR)
        stats, _ = bk.factor_stats()
        unsorted = self._stats(stats, _unsorted_copy)
        want = EdgeIndex.from_stats(unsorted)
        got = EdgeIndex.from_stats(self._stats(unsorted, _as_triple))
        self._assert_same_index(got, want)
        # Storage order never reaches the index: keys come out sorted.
        self._assert_same_index(got, EdgeIndex.from_stats(stats))

    def test_oracle_on_triples_matches(self):
        bk = make_bipartite_product(path_graph(4), cycle_graph(6), Assumption.SELF_LOOPS_FACTOR)
        stats_a, stats_b = bk.factor_stats()
        want = GroundTruthOracle(bk)
        got = GroundTruthOracle.from_factor_stats(
            self._stats(stats_a, lambda m: _as_triple(_unsorted_copy(m))),
            self._stats(stats_b, _as_triple),
            bk.B.part,
            bk.assumption,
        )
        assert (got.n, got.m, got.n_b) == (bk.n, bk.m, bk.B.graph.n)
        ps, qs = np.indices((bk.n, bk.n)).reshape(2, -1)
        assert np.array_equal(
            got.squares_at_edges(ps, qs, on_invalid="mask"),
            want.squares_at_edges(ps, qs, on_invalid="mask"),
        )
        assert got.max_wing_bound() == want.max_wing_bound()
        assert got.memory_footprint_entries() == want.memory_footprint_entries()
