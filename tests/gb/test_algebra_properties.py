"""Property tests for the algebraic identities of the paper's Appendix A.

Props. 1 and 2 are the machinery behind every Kronecker formula
derivation; if any failed on the sparse algebra the engine and the
reference forms run on (``scipy.sparse`` kron, Hadamard and matrix
products), the ground-truth layer would silently be wrong.  Hypothesis
exercises them on random small integer matrices.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays


def int_matrices(rows, cols):
    return arrays(np.int64, (rows, cols), elements=st.integers(-4, 4))


def csr(dense) -> sp.csr_array:
    return sp.csr_array(dense)


def kron(a, b) -> sp.csr_array:
    return sp.csr_array(sp.kron(a, b, format="csr"))


small = st.integers(2, 3)


@given(small, small, int_matrices(2, 3), int_matrices(2, 3))
@settings(max_examples=30, deadline=None)
def test_prop1b_kron_distributes_over_addition(r, c, a1_raw, a2_raw):
    """(A1 + A2) ⊗ A3 = A1 ⊗ A3 + A2 ⊗ A3."""
    A1, A2 = csr(a1_raw), csr(a2_raw)
    A3 = csr(np.arange(r * c).reshape(r, c))
    left = kron(A1 + A2, A3)
    right = kron(A1, A3) + kron(A2, A3)
    assert np.array_equal(left.toarray(), right.toarray())


@given(int_matrices(2, 3), int_matrices(3, 2))
@settings(max_examples=30, deadline=None)
def test_prop1c_kron_transposition(a_raw, b_raw):
    """(A ⊗ B)ᵗ = Aᵗ ⊗ Bᵗ."""
    A, B = csr(a_raw), csr(b_raw)
    assert np.array_equal(kron(A, B).T.toarray(), kron(A.T, B.T).toarray())


@given(int_matrices(2, 2), int_matrices(3, 3), int_matrices(2, 2), int_matrices(3, 3))
@settings(max_examples=30, deadline=None)
def test_prop1d_mixed_product(a1, a2, a3, a4):
    """(A1 ⊗ A2)(A3 ⊗ A4) = (A1 A3) ⊗ (A2 A4) -- the single most
    load-bearing identity in the paper."""
    M = [csr(x) for x in (a1, a2, a3, a4)]
    left = kron(M[0], M[1]) @ kron(M[2], M[3])
    right = kron(M[0] @ M[2], M[1] @ M[3])
    assert np.array_equal(left.toarray(), right.toarray())


@given(int_matrices(3, 3), int_matrices(3, 3))
@settings(max_examples=30, deadline=None)
def test_prop2a_hadamard_commutativity(a, b):
    A, B = csr(a), csr(b)
    assert np.array_equal(A.multiply(B).toarray(), B.multiply(A).toarray())


@given(int_matrices(2, 3), int_matrices(2, 3), int_matrices(2, 3))
@settings(max_examples=30, deadline=None)
def test_prop2c_hadamard_distributes_over_addition(a1, a2, a3):
    """(A1 + A2) ∘ A3 = A1 ∘ A3 + A2 ∘ A3."""
    A1, A2, A3 = csr(a1), csr(a2), csr(a3)
    left = (A1 + A2).multiply(A3)
    right = A1.multiply(A3) + A2.multiply(A3)
    assert np.array_equal(left.toarray(), right.toarray())


@given(int_matrices(2, 2), int_matrices(3, 3), int_matrices(2, 2), int_matrices(3, 3))
@settings(max_examples=30, deadline=None)
def test_prop2e_hadamard_kronecker_distributivity(a1, a2, a3, a4):
    """(A1 ⊗ A2) ∘ (A3 ⊗ A4) = (A1 ∘ A3) ⊗ (A2 ∘ A4)."""
    M = [csr(x) for x in (a1, a2, a3, a4)]
    left = kron(M[0], M[1]).multiply(kron(M[2], M[3]))
    right = kron(M[0].multiply(M[2]), M[1].multiply(M[3]))
    assert np.array_equal(left.toarray(), right.toarray())


@given(int_matrices(2, 2), int_matrices(3, 3))
@settings(max_examples=30, deadline=None)
def test_prop2f_diag_kronecker_distributivity(a1, a2):
    """diag(A1 ⊗ A2) = diag(A1) ⊗ diag(A2)."""
    A1, A2 = csr(a1), csr(a2)
    assert np.array_equal(kron(A1, A2).diagonal(), np.kron(A1.diagonal(), A2.diagonal()))


@given(int_matrices(2, 3), int_matrices(4, 2), int_matrices(3, 4))
@settings(max_examples=30, deadline=None)
def test_kron_associativity(a, b, c):
    """(A ⊗ B) ⊗ C = A ⊗ (B ⊗ C) -- implicitly assumed by every k-factor chain."""
    A, B, C = (csr(x) for x in (a, b, c))
    assert np.array_equal(kron(kron(A, B), C).toarray(), kron(A, kron(B, C)).toarray())
