"""Def. 4's block index maps, as a Kronecker chain realises them.

The paper's 1-based ``α_n(i)``, ``β_n(i)`` and ``γ_n(x, y)`` read, 0-based,
``α(p) = p // n``, ``β(p) = p % n`` and ``γ(i, k) = i · n + k``.  A chain
``[X, Y]`` with ``n = n_Y`` splits product vertex ``p`` into the digits
``(α(p), β(p))`` (:meth:`KroneckerChain.digits`, batched ``_split``) and
numbers the entries it streams by ``γ`` -- the order of ``numpy.kron``
and ``scipy.sparse.kron``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.generators import path_graph
from repro.graphs import Graph
from repro.kronecker.multifactor import KroneckerChain


def _chain(n_a: int, n_b: int) -> KroneckerChain:
    """A chain of edgeless factors: its digits depend on the sizes only."""
    return KroneckerChain.from_graphs([Graph.empty(n_a), Graph.empty(n_b)])


def block_index(chain: KroneckerChain, p: int) -> int:
    return chain.digits(p)[0]


def intra_index(chain: KroneckerChain, p: int) -> int:
    return chain.digits(p)[1]


class TestScalarMaps:
    def test_block_index_basic(self):
        chain = _chain(3, 4)
        assert [block_index(chain, p) for p in (0, 3, 4, 11)] == [0, 0, 1, 2]

    def test_intra_index_basic(self):
        chain = _chain(3, 4)
        assert [intra_index(chain, p) for p in (0, 3, 4, 11)] == [0, 3, 0, 3]

    def test_pair_index_basic(self):
        # Row γ(i, k) of P3 ⊗ P4 holds the columns γ(j, l), j ~ i, l ~ k.
        chain = KroneckerChain.from_graphs([path_graph(3), path_graph(4)])
        for (i, k), cols in {(0, 0): [5], (1, 0): [1, 9], (2, 3): [6]}.items():
            got = np.concatenate([c for _, c in chain.stream_rows(i * 4 + k, i * 4 + k + 1)])
            assert sorted(got.tolist()) == cols

    def test_pair_index_rejects_out_of_block(self):
        chain = _chain(3, 4)
        with pytest.raises(IndexError):
            chain.degrees([1, 12])
        with pytest.raises(IndexError):
            chain.degrees([-1])

    @pytest.mark.parametrize("fn", [block_index, intra_index])
    def test_nonpositive_block_size_rejected(self, fn):
        # An empty factor leaves a product with no vertices to index.
        with pytest.raises(IndexError):
            fn(_chain(3, 0), 0)
        with pytest.raises(IndexError):
            fn(_chain(0, 4), 0)


class TestVectorisedMaps:
    def test_arrays_roundtrip(self):
        p = np.arange(24)
        i, k = _chain(4, 6)._split(p)
        assert np.array_equal(i * 6 + k, p)

    def test_product_to_pair_matches_scalar_maps(self):
        chain = _chain(4, 6)
        p = np.array([0, 5, 6, 23])
        i, k = chain._split(p)
        assert np.array_equal(i, [block_index(chain, x) for x in p.tolist()])
        assert np.array_equal(k, [intra_index(chain, x) for x in p.tolist()])

    def test_pair_to_product_shape_checks(self):
        with pytest.raises(ValueError, match="1-D"):
            _chain(4, 4).degrees(np.array([[1, 2, 3]]))

    def test_pair_to_product(self):
        chain = _chain(4, 4)
        assert [chain.digits(p) for p in (0, 6, 15)] == [(0, 0), (1, 2), (3, 3)]


class TestKroneckerOrderingContract:
    """The digits must match numpy/scipy kron entry placement."""

    def test_matches_numpy_kron(self):
        rng = np.random.default_rng(0)
        A = rng.integers(0, 3, size=(3, 3))
        B = rng.integers(0, 3, size=(4, 4))
        C = np.kron(A, B)
        chain = _chain(3, 4)
        for p in range(12):
            for q in range(12):
                i, k = chain.digits(p)
                j, l = chain.digits(q)
                assert C[p, q] == A[i, j] * B[k, l]


@given(st.integers(0, 10**5), st.integers(1, 1000))
def test_roundtrip_property(p, n):
    i, k = _chain(p // n + 1, n).digits(p)
    assert 0 <= k < n
    assert i * n + k == p
