"""Tests for what is built once per product: the handle's chain
``[M, B]`` and the referee's memoised factor statistics."""

import numpy as np

from repro.generators import cycle_graph, path_graph
from repro.graphs.graph import Graph
from repro.kronecker import (
    Assumption,
    GroundTruthOracle,
    global_squares_product,
    make_bipartite_product,
    vertex_squares_product,
)
from repro.kronecker.multifactor import ChainFactor, KroneckerChain
from repro.refcheck.printed import product_stats


class TestFactorStatsCache:
    def test_same_objects_returned(self):
        bk = make_bipartite_product(cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR)
        a1, b1 = product_stats(bk)
        a2, b2 = product_stats(bk)
        assert a1 is a2 and b1 is b2

    def test_oracle_shares_cached_stats(self):
        bk = make_bipartite_product(path_graph(4), path_graph(5), Assumption.SELF_LOOPS_FACTOR)
        assert GroundTruthOracle(bk).chain is bk.chain

    def test_formula_results_unchanged_by_cache(self):
        """Cached and freshly-computed paths must agree exactly."""
        bk = make_bipartite_product(cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR)
        cached = vertex_squares_product(bk)
        fresh = KroneckerChain([ChainFactor.from_graph(bk.M), ChainFactor.from_graph(bk.B.graph)])
        assert np.array_equal(cached, fresh.vertex_squares(np.arange(bk.n)))

    def test_cache_is_per_handle(self):
        bk1 = make_bipartite_product(cycle_graph(3), path_graph(3), Assumption.NON_BIPARTITE_FACTOR)
        bk2 = make_bipartite_product(cycle_graph(3), path_graph(3), Assumption.NON_BIPARTITE_FACTOR)
        assert bk1.chain is not bk2.chain
        assert product_stats(bk1)[0] is not product_stats(bk2)[0]

    def test_repeated_global_calls_consistent(self):
        bk = make_bipartite_product(cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR)
        assert global_squares_product(bk) == global_squares_product(bk)


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


class TestChainTables:
    """Chain tables are plain arrays (a loaded artifact holds memmaps of
    them); storage order of the input adjacency never reaches them."""

    def test_unsorted_column_indices(self):
        """A graph built from an unsorted CSR yields sorted tables."""
        from dataclasses import fields

        bk = make_bipartite_product(cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR)
        want = ChainFactor.from_graph(bk.M)
        got = ChainFactor.from_graph(Graph(_unsorted_copy(bk.M.adj)))
        for f in fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert np.array_equal(a, b), f.name
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype == np.int64, f.name

    def test_oracle_on_chain_tables_matches(self):
        from dataclasses import fields

        bk = make_bipartite_product(path_graph(4), cycle_graph(6), Assumption.SELF_LOOPS_FACTOR)
        want = GroundTruthOracle(bk)
        # Rebuild the chain from read-only copies of its tables, as
        # ``load_oracle`` does from the artifact's members.
        factors = []
        for f in want.chain.factors:
            tables = {field.name: getattr(f, field.name) for field in fields(f)}
            for name, value in tables.items():
                if isinstance(value, np.ndarray):
                    tables[name] = value.copy()
                    tables[name].flags.writeable = False
            factors.append(ChainFactor(**tables))
        got = GroundTruthOracle(KroneckerChain(factors))
        assert (got.n, got.m) == (bk.n, bk.m)
        ps, qs = np.indices((bk.n, bk.n)).reshape(2, -1)
        assert np.array_equal(
            got.squares_at_edges(ps, qs, on_invalid="mask"),
            want.squares_at_edges(ps, qs, on_invalid="mask"),
        )
        assert got.max_wing_bound() == want.max_wing_bound()
        assert got.memory_footprint_entries() == want.memory_footprint_entries()
