"""Ground-truth 4-cycle formulas for bipartite Kronecker products.

This module implements §III-B.  Everything is read from the per-factor
walk tables of the chain ``[M, B]`` (:class:`~repro.kronecker.multifactor.ChainFactor`),
of size ``O(|E_A| + |E_B|)``; the product itself is never touched.  Cost model (§I): local vertex counts
in ``O(n_C)`` output time, local edge counts in ``O(|E_C|)`` output
time, global counts in ``O(|E_A| + |E_B|)`` -- *sublinear* in the
product.

Formulas (0-based, loop-free factors; ``d`` degree, ``w2 = A² 1``,
``s`` vertex squares, ``◇`` edge squares, ``cw4 = diag(A⁴) =
2s + d² + w2 - d``):

**Thm. 3** (Assumption 1(i), ``C = A ⊗ B``)::

    s_C = (cw4_A ⊗ cw4_B - d_A² ⊗ d_B² - w2_A ⊗ w2_B + d_A ⊗ d_B) / 2

**Thm. 4** (Assumption 1(ii), ``C = (A + I_A) ⊗ B``, ``A`` bipartite)::

    s_C = ( (2s_A + d_A² + w2_A + 5 d_A + 1) ⊗ cw4_B
            - (d_A + 1)² ⊗ d_B²
            - (w2_A + 2 d_A + 1) ⊗ w2_B
            + (d_A + 1) ⊗ d_B ) / 2

.. note::
   The paper's displayed Thm. 4 carries a sign typo: it shows
   ``- (d_A + 1) ⊗ d_B`` and ``+ (d_A² + 2d_A + 1) ⊗ d_B²``, which
   contradicts Def. 8 (``s = (diag(C⁴) - d∘d - w2 + d)/2``).  We
   implement the Def.-8-consistent signs above; the property tests
   confirm them against brute-force counting on materialized products
   (and refute the printed signs).  See DESIGN.md "Paper errata".

**Thm. 5** (Assumption 1(i) edges)::

    ◇_C = C + W3_A ⊗ W3_B
            - (d_A 1ᵗ ∘ A) ⊗ (d_B 1ᵗ ∘ B)
            - (1 d_Aᵗ ∘ A) ⊗ (1 d_Bᵗ ∘ B)

with ``W3_X = X³ ∘ X = ◇_X + (d 1ᵗ + 1 dᵗ) ∘ X - X``.

**Derived Assumption-1(ii) edge formula** (the paper asserts §III-B2
covers both assumptions but prints only Thm. 5; we derive the (ii)
case, using ``(A+I)³ ∘ (A+I) = A³∘A + 3A + 3·Diag(d_A) + I`` for
bipartite loop-free ``A``)::

    ◇_C = (A+I) ⊗ B + [W3_A + 3A + 3·Diag(d_A) + I] ⊗ W3_B
            - ((d_A+1) 1ᵗ ∘ (A+I)) ⊗ (d_B 1ᵗ ∘ B)
            - (1 (d_A+1)ᵗ ∘ (A+I)) ⊗ (1 d_Bᵗ ∘ B)

All four are the multiplicative Def. 8/9 forms evaluated on the 2-factor
chain ``[M, B]`` (``M = A`` or ``A + I_A``;
:class:`~repro.kronecker.multifactor.KroneckerChain`): the coefficient
``W3_M`` is Thm. 5's α and ``d_M`` its β.  The functions below read the
chain tables; the printed term-by-term forms are the independent
referee in :mod:`repro.refcheck.printed`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.kronecker.multifactor import KroneckerChain

# scipy.sparse is imported inside the one function that assembles a CSR,
# so importing this module stays cheap.
if TYPE_CHECKING:  # pragma: no cover
    import scipy.sparse as sp

    from repro.graphs.graph import Graph
    from repro.kronecker.assumptions import BipartiteKronecker

__all__ = [
    "vertex_squares_product",
    "edge_squares_product",
    "global_squares_product",
    "squares_if_square_free_factors",
]


def vertex_squares_product(bk: BipartiteKronecker) -> np.ndarray:
    """Ground-truth vertex 4-cycle counts ``s_C`` (Thm. 3 / Thm. 4).

    Dense int64 vector of length ``n_C = n_A * n_B``; vertex
    ``p = γ(i, k)`` is at position ``i * n_B + k``.
    """
    chain = bk.chain
    return chain.vertex_squares(np.arange(chain.n, dtype=np.int64))


def global_squares_product(bk: BipartiteKronecker) -> int:
    """Ground-truth global 4-cycle count of ``G_C`` -- **sublinear**.

    Uses ``Σ (x ⊗ y) = (Σ x)(Σ y)``: only factor-sized reductions are
    formed, never the ``n_C``-length vector.  This is the §I claim that
    "global scalar quantities are computed sublinearly".
    """
    return bk.chain.global_squares()


def edge_squares_product(bk: BipartiteKronecker) -> sp.csr_array:
    """Ground-truth edge 4-cycle counts ``◇_C`` (Thm. 5 / derived (ii)).

    Sparse symmetric matrix whose pattern equals the product adjacency
    (explicit zeros kept for square-free edges).  Memory and time are
    ``O(|E_C|)`` -- linear in the product's edges, computed *without*
    ever forming ``C³``: the chain streams every stored entry with its
    Def. 9 count (:meth:`~repro.kronecker.multifactor.KroneckerChain.stream_rows`).
    """
    import scipy.sparse as sp

    chain = bk.chain
    p, q, vals = (np.empty(chain.nnz, dtype=np.int64) for _ in range(3))
    end = 0
    for rows, cols, squares in chain.stream_rows(0, chain.n, attach_ground_truth=True):
        start, end = end, end + rows.size
        p[start:end], q[start:end], vals[start:end] = rows, cols, squares
    return sp.csr_array(sp.coo_array((vals, (p, q)), shape=(chain.n, chain.n)))


# ---------------------------------------------------------------------------
# Remark 1: products always have 4-cycles
# ---------------------------------------------------------------------------


def squares_if_square_free_factors(A: Graph, B: Graph) -> int:
    """Global square count of ``A ⊗ B`` when both factors are
    square-free (Rem. 1's specialization of Thm. 3).

    With ``s_A = s_B = 0`` the formula still yields a positive count as
    soon as both factors have a vertex of degree >= 2 -- the paper's
    observation that non-trivial products *always* contain 4-cycles.
    Raises if a factor does have squares (use the full formula then).
    """
    factors = [KroneckerChain.from_graphs([g]) for g in (A, B)]
    if any(f.global_squares() for f in factors):
        raise ValueError("factors are not square-free; use global_squares_product")
    return KroneckerChain(factors[0].factors + factors[1].factors).global_squares()
