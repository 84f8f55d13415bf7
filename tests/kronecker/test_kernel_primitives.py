"""The numpy batch primitives, called directly or at their one call site.

The hash table behind every factor edge lookup, the chain's chunked
vertex and edge queries and their Def. 8/9 finishes, and the masking
rules the oracle and the chain wing probe apply (NaN clustering, the
``-1`` wing sentinel, the max-wing reduction).  End-to-end bit-identity
against the brute-force referee lives in ``tests/refcheck``.
"""

import numpy as np
import pytest

from repro.generators import complete_bipartite, cycle_graph, path_graph
from repro.graphs.graph import Graph
from repro.kronecker import Assumption, GroundTruthOracle, make_bipartite_product
from repro.kronecker.kernels import (
    _BATCH_CHUNK,
    _hash_slots,
    build_edge_table,
    probe_edge_table,
    table_bits,
)
from repro.kronecker.multifactor import KroneckerChain, def8_finish
from repro.kronecker.wings import chain_wings_at_edges
from repro.refcheck.printed import vertex_squares_product_reference


def _colliding_keys(n_keys: int) -> np.ndarray:
    """Distinct keys whose home slots coincide in a table sized for ``n_keys``."""
    _, shift = table_bits(n_keys)
    cand = np.arange(200_000, dtype=np.int64)
    slots = _hash_slots(cand, shift)
    target = int(slots[0])
    keys = cand[slots == target][:n_keys]
    assert keys.size == n_keys
    return keys


class TestEdgeTable:
    def test_load_factor_quarter(self):
        for n in (0, 1, 2, 7, 8, 100, 5000):
            size, shift = table_bits(n)
            assert size >= 4 * n and size >= 8
            assert size == 1 << (64 - shift)
            assert size & (size - 1) == 0
            keys = np.arange(n, dtype=np.int64) * 7
            table_keys, table_vals, t_shift = build_edge_table(keys, keys + 1)
            assert table_keys.size == table_vals.size == size
            assert t_shift == shift
            assert np.count_nonzero(table_keys != -1) == n

    def test_probe_matches_dict(self):
        rng = np.random.default_rng(3)
        keys = np.unique(rng.integers(0, 10**9, size=3000)).astype(np.int64)
        vals = rng.integers(1, 10**6, size=keys.size).astype(np.int64)
        ref = dict(zip(keys.tolist(), vals.tolist()))
        table = build_edge_table(keys, vals)
        queries = np.concatenate((keys, rng.integers(0, 10**9, size=3000).astype(np.int64)))
        rng.shuffle(queries)
        found, got = probe_edge_table(*table, queries)
        assert found.tolist() == [q in ref for q in queries.tolist()]
        assert got.tolist() == [ref.get(q, 0) for q in queries.tolist()]

    def test_misses_report_zero(self):
        keys = np.array([3, 17, 44, 101, 9], dtype=np.int64)
        vals = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        queries = np.array([17, 5, 101, 3, 200], dtype=np.int64)
        found, got = probe_edge_table(*build_edge_table(keys, vals), queries)
        np.testing.assert_array_equal(found, [True, False, True, True, False])
        np.testing.assert_array_equal(got, [2, 0, 4, 1, 0])

    def test_forced_collision_chain(self):
        # Every key hashes to one home slot, so all but the first sit
        # further down a linear-probe chain (and one wraps when the home
        # slot is near the end of the table).
        keys = _colliding_keys(6)
        vals = np.arange(10, 16, dtype=np.int64)
        ref = dict(zip(keys.tolist(), vals.tolist()))
        table_keys, table_vals, shift = build_edge_table(keys, vals)
        home = int(_hash_slots(keys[:1], shift)[0])
        chain = [(home + d) % table_keys.size for d in range(keys.size)]
        assert set(table_keys[chain].tolist()) == set(keys.tolist())
        # A miss that shares the home slot walks the whole chain.
        _, shift_n = table_bits(keys.size)
        cand = np.arange(200_000, 400_000, dtype=np.int64)
        miss = cand[_hash_slots(cand, shift_n) == home][:1]
        queries = np.concatenate((keys[::-1], miss))
        found, got = probe_edge_table(table_keys, table_vals, shift, queries)
        assert found.tolist() == [q in ref for q in queries.tolist()]
        assert got.tolist() == [ref.get(q, 0) for q in queries.tolist()]


@pytest.fixture
def bk():
    return make_bipartite_product(
        cycle_graph(5), complete_bipartite(2, 3).graph, Assumption.NON_BIPARTITE_FACTOR
    )


class TestVertexSquares:
    def test_blocked_loops_match_grid(self, bk):
        want = vertex_squares_product_reference(bk)
        chain = bk.chain
        rng = np.random.default_rng(5)
        ps = rng.integers(0, bk.n, size=3 * _BATCH_CHUNK + 7).astype(np.int64)
        np.testing.assert_array_equal(chain.vertex_squares(ps), want[ps])
        np.testing.assert_array_equal(chain.vertex_squares(np.arange(bk.n)), want)
        assert chain.vertex_squares(np.zeros(0, dtype=np.int64)).shape == (0,)

    def test_odd_excess_trips_the_parity_assertion(self):
        zero = np.zeros(2, dtype=np.int64)
        with pytest.raises(AssertionError, match="even closed-walk excess"):
            def8_finish(np.array([1, 2], dtype=np.int64), zero, zero, zero)
        with pytest.raises(AssertionError, match="even closed-walk excess"):
            def8_finish(3, 0, 0, 0)  # the exact Python-int form of range sums
        # Even everywhere: halved, no assertion.
        got = def8_finish(np.array([6, 4], dtype=np.int64), np.array([2, 2]), zero, zero)
        assert got.tolist() == [2, 1]


class TestEdgeFuse:
    @pytest.mark.parametrize("n", [40, 2 * _BATCH_CHUNK + 3])
    def test_invalid_slots_are_zeroed(self, bk, n):
        oracle = GroundTruthOracle(bk)
        rng = np.random.default_rng(n)
        ps = rng.integers(0, bk.n, size=n).astype(np.int64)
        qs = rng.integers(0, bk.n, size=n).astype(np.int64)
        vals, valid = bk.chain.edge_squares(ps, qs)
        is_edge = bk.materialize().adj.toarray()[ps, qs] != 0
        assert 0 < is_edge.sum() < n
        np.testing.assert_array_equal(valid, is_edge)
        assert not vals[~valid].any()
        scalar = [oracle.squares_at_edge(p, q) for p, q in zip(ps[valid], qs[valid])]
        assert vals[valid].tolist() == scalar


class TestMaskingAtCallSites:
    def test_clustering_nan_off_domain(self):
        # A triangle with a pendant vertex against a single edge: the
        # pendant's product vertices have degree 1.
        paw = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        bk = make_bipartite_product(paw, path_graph(2), Assumption.NON_BIPARTITE_FACTOR)
        oracle = GroundTruthOracle(bk)
        grid = np.indices((bk.n, bk.n)).reshape(2, -1)
        got = oracle.clustering_at_edges(grid[0], grid[1])
        degree_one = 0
        for p, q, value in zip(grid[0].tolist(), grid[1].tolist(), got.tolist()):
            try:
                want = oracle.clustering_at_edge(p, q)
            except ValueError:  # not an edge (◇ = -1 sentinel) or a degree < 2
                degree_one += oracle.has_edge(p, q)
                assert np.isnan(value), (p, q)
            else:
                assert value == want, (p, q)
        assert degree_one > 0

    def test_wing_sentinel(self, bk):
        oracle = GroundTruthOracle(bk)
        grid = np.indices((bk.n, bk.n)).reshape(2, -1)
        valid = oracle.has_edges(grid[0], grid[1])
        got = oracle.wings_at_edges(grid[0], grid[1], on_invalid="mask")
        assert (got[~valid] == -1).all()
        np.testing.assert_array_equal(
            got[valid], oracle.squares_at_edges(grid[0][valid], grid[1][valid])
        )
        chain = bk.chain
        chain_got = chain_wings_at_edges(chain, grid[0], grid[1], on_invalid="mask")
        np.testing.assert_array_equal(chain_got, got)

    def test_max_wing_zero_on_empty_product(self):
        bk = make_bipartite_product(
            path_graph(3), Graph.empty(2), Assumption.SELF_LOOPS_FACTOR, require_connected=False
        )
        assert GroundTruthOracle(bk).max_wing_bound() == 0

    def test_max_wing_zero_all_invalid(self, bk, monkeypatch):
        def only_empty_blocks(self, lo, hi, attach_ground_truth=False, block_entries=None):
            empty = np.zeros(0, dtype=np.int64)
            yield empty, empty, empty

        monkeypatch.setattr(KroneckerChain, "stream_rows", only_empty_blocks)
        assert GroundTruthOracle(bk).max_wing_bound() == 0

    def test_max_wing_is_max_support(self, bk):
        oracle = GroundTruthOracle(bk)
        grid = np.indices((bk.n, bk.n)).reshape(2, -1)
        valid = oracle.has_edges(grid[0], grid[1])
        supports = oracle.squares_at_edges(grid[0][valid], grid[1][valid])
        assert oracle.max_wing_bound() == int(supports.max())
