"""The product's index map: a chain's mixed-radix digits (Def. 4)."""

import numpy as np
import pytest

from repro.generators import path_graph
from repro.graphs import Graph
from repro.kronecker.multifactor import KroneckerChain


def _chain(n_a: int, n_b: int) -> KroneckerChain:
    return KroneckerChain.from_graphs([path_graph(n_a), path_graph(n_b)])


class TestProductIndexMap:
    def test_n_product(self):
        assert _chain(3, 7).n == 21

    def test_split_scalar(self):
        assert _chain(4, 5).digits(13) == (2, 3)

    def test_fuse_scalar(self):
        # Product vertex γ(2, 3) = 2 · 5 + 3 owns row 13 of the stream.
        rows = [r for r, _ in _chain(4, 5).stream_rows(13, 14)]
        assert set(np.concatenate(rows).tolist()) == {13}

    def test_vectorised_roundtrip(self):
        chain = _chain(6, 9)
        p = np.arange(54)
        i, k = chain._split(p)
        assert np.array_equal(i * 9 + k, p)
        assert list(zip(i.tolist(), k.tolist())) == [chain.digits(int(x)) for x in p]

    def test_split_out_of_range(self):
        with pytest.raises(IndexError):
            _chain(2, 3).digits(6)
        with pytest.raises(IndexError):
            _chain(2, 3).digits(-1)

    def test_fuse_out_of_range(self):
        with pytest.raises(IndexError):
            _chain(2, 3).degrees([6])
        with pytest.raises(ValueError):
            next(_chain(2, 3).stream_rows(0, 7))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            KroneckerChain([])
        with pytest.raises(ValueError):
            KroneckerChain.from_graphs([path_graph(2).with_all_self_loops()] * 2)

    def test_matches_scipy_kron_layout(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        # A may carry loops, B does not: the product stays loop-free.
        A = Graph.from_edges(
            3, [(i, j) for i in range(3) for j in range(i, 3) if rng.random() < 0.5]
        )
        B = Graph.from_edges(
            4, [(k, l) for k in range(4) for l in range(k + 1, 4) if rng.random() < 0.5]
        )
        C = sp.kron(A.adj, B.adj).toarray()
        chain = KroneckerChain.from_graphs([A, B])
        a, b = A.to_dense(), B.to_dense()
        for p in range(12):
            for q in range(12):
                i, k = chain.digits(p)
                j, l = chain.digits(q)
                assert C[p, q] == a[i, j] * b[k, l]
