"""The product handle: ``BipartiteKronecker.chain`` against ``sp.kron``.

A product is one :class:`~repro.kronecker.multifactor.KroneckerChain`:
its digits are Def. 4's index maps, ``stream_rows(p, p + 1)`` its
neighbour lists, ``materialize`` its one materializer.  Every check is
refereed by a product folded here with ``scipy.sparse.kron``.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import complete_graph, cycle_graph, path_graph, star_graph
from repro.graphs import Graph
from repro.kronecker import Assumption, make_bipartite_product
from repro.kronecker.multifactor import KroneckerChain

from tests.shard_referee import kron_graph
from tests.strategies import products


def _materialized(factors) -> Graph:
    return Graph(KroneckerChain.from_graphs(factors).materialize())


def _row(chain: KroneckerChain, p: int) -> np.ndarray:
    """Sorted neighbours of product vertex ``p`` from its row stream."""
    blocks = [cols for _, cols in chain.stream_rows(p, p + 1)]
    return np.sort(np.concatenate(blocks)) if blocks else np.zeros(0, dtype=np.int64)


@given(
    bk=st.sampled_from(list(Assumption)).flatmap(
        lambda a: products(a, max_a=4, max_side=3, require_connected=False)
    )
)
@settings(max_examples=40, deadline=None)
def test_handle_matches_scipy_kron(bk):
    """``bk.chain`` is ``M ⊗ B``: materialized, sized, degrees, rows and
    digits all agree with the ``sp.kron`` referee."""
    want = Graph(sp.kron(bk.M.adj, bk.B.graph.adj, format="csr"))
    got = bk.materialize()
    assert got == want
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert (bk.n, bk.m) == (want.n, want.m)
    assert want.num_self_loops == 0  # B is loop-free, so C is (§II-B)
    chain, n_b = bk.chain, bk.B.graph.n
    d = np.kron(bk.M.degrees(), bk.B.graph.degrees())
    assert np.array_equal(chain.degrees(np.arange(bk.n)), d)
    for p in range(bk.n):
        assert np.array_equal(_row(chain, p), want.neighbors(p))
        assert chain.digits(p) == divmod(p, n_b)


class TestKronGraph:
    def test_matches_scipy(self):
        A, B = cycle_graph(3), path_graph(3)
        C = _materialized([A, B])
        expected = sp.kron(A.adj, B.adj).toarray()
        assert np.array_equal(C.to_dense(), expected)

    def test_sizes(self):
        A, B = cycle_graph(4), path_graph(5)
        chain = KroneckerChain.from_graphs([A, B])
        assert chain.n == 20
        assert chain.nnz == A.nnz * B.nnz == _materialized([A, B]).nnz

    def test_degrees_multiply(self):
        A, B = star_graph(3), path_graph(3)
        chain = KroneckerChain.from_graphs([A, B])
        expected = np.kron(A.degrees(), B.degrees())
        assert np.array_equal(chain.degrees(np.arange(chain.n)), expected)


class TestKronPower:
    def test_power_one(self):
        A = cycle_graph(4)
        assert _materialized([A]) == A

    def test_power_two_matches_pairwise(self):
        A = path_graph(3)
        assert _materialized([A, A]) == kron_graph([A, A])

    def test_power_three_size(self):
        A = path_graph(2)
        chain = KroneckerChain.from_graphs([A] * 3)
        assert chain.n == _materialized([A] * 3).n == 8

    def test_invalid_power(self):
        with pytest.raises(ValueError, match="at least one"):
            KroneckerChain([])


class TestProductIndexMap:
    def test_roundtrip(self):
        chain = KroneckerChain.from_graphs([path_graph(3), path_graph(5)])
        p = np.arange(15)
        i, k = chain._split(p)
        assert np.array_equal(i * 5 + k, p)

    def test_bounds(self):
        chain = KroneckerChain.from_graphs([path_graph(3), path_graph(5)])
        with pytest.raises(IndexError):
            chain.digits(15)
        with pytest.raises(IndexError):
            chain.degrees([15])

    def test_invalid_sizes(self):
        chain = KroneckerChain.from_graphs([path_graph(3), path_graph(5)])
        with pytest.raises(ValueError, match="refusing to materialize"):
            chain.materialize(max_entries=chain.nnz - 1)


class TestImplicitProduct:
    @pytest.fixture
    def pair(self):
        A = complete_graph(4)
        B = path_graph(4)
        bk = make_bipartite_product(A, B, Assumption.NON_BIPARTITE_FACTOR)
        return bk, kron_graph([A, B])

    def test_sizes_match_materialized(self, pair):
        bk, C = pair
        assert bk.n == C.n
        assert bk.m == C.m
        assert bk.chain.nnz == C.nnz

    def test_self_loop_count(self):
        # Both factors looped: the product has loops, which the chain refuses.
        A = path_graph(3).with_all_self_loops()
        B = path_graph(2).with_all_self_loops()
        assert kron_graph([A, B]).num_self_loops == 6
        with pytest.raises(ValueError, match="self loops"):
            KroneckerChain.from_graphs([A, B])

    def test_loopfree_product_edge_count(self):
        # One factor loop-free -> product loop-free (paper §II-B).
        bk = make_bipartite_product(path_graph(3), path_graph(2), Assumption.SELF_LOOPS_FACTOR)
        C = kron_graph([path_graph(3).with_all_self_loops(), path_graph(2)])
        assert C.num_self_loops == 0
        assert bk.m == C.m

    def test_degrees_match(self, pair):
        bk, C = pair
        assert np.array_equal(bk.chain.degrees(np.arange(bk.n)), C.degrees())

    def test_degree_single_queries(self, pair):
        bk, C = pair
        d = C.degrees()
        for p in range(C.n):
            assert bk.chain.degrees([p])[0] == d[p]

    def test_has_edge_agrees(self, pair):
        bk, C = pair
        rng = np.random.default_rng(0)
        ps, qs = rng.integers(0, C.n, (2, 200))
        _, valid = bk.chain.edge_squares(ps, qs)
        assert valid.tolist() == [C.has_edge(int(p), int(q)) for p, q in zip(ps, qs)]

    def test_neighbors_agree(self, pair):
        bk, C = pair
        for p in range(C.n):
            assert np.array_equal(_row(bk.chain, p), C.neighbors(p))

    def test_materialize(self, pair):
        bk, C = pair
        assert bk.materialize() == C
