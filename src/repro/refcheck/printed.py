"""The paper's printed Thm. 3/4/5 forms, evaluated term by term.

The production engine evaluates every ground-truth count through the
multiplicative Def. 8/9 forms on :class:`~repro.kronecker.multifactor.KroneckerChain`
tables.  This module is its referee on the formula side: it evaluates
the coefficient forms as the paper prints them (with Thm. 4's sign
erratum corrected, see :mod:`repro.kronecker.ground_truth`), as sums of
``np.kron``/``sp.kron`` terms over :class:`~repro.kronecker.ground_truth.FactorStats`
-- ``FactorStats`` count ``s`` and ``◇`` on each factor directly, so no
chain table and no Def. 8/9 finish is involved.  The differential
verifier (:mod:`repro.refcheck.differ`) and the property tests hold the
engine to these values, and :func:`combine_stats` folds them into an
engine-independent multi-factor reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np
import scipy.sparse as sp

from repro.kronecker.assumptions import Assumption
from repro.kronecker.ground_truth import FactorStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.graph import Graph
    from repro.kronecker.assumptions import BipartiteKronecker

__all__ = [
    "vertex_terms",
    "vertex_squares_from_stats",
    "global_squares_from_stats",
    "edge_terms",
    "vertex_squares_product_reference",
    "edge_squares_product_reference",
    "combine_stats",
    "multi_kronecker_stats",
    "multi_kronecker_global_squares",
]


# ---------------------------------------------------------------------------
# Vertex forms (Thms. 3 and 4)
# ---------------------------------------------------------------------------


def vertex_terms(
    stats_a: FactorStats, stats_b: FactorStats, assumption: Assumption
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The four (sign, left, right) vector triples of the vertex formula:
    ``s_C = (Σ sign · left ⊗ right) / 2``."""
    a, b = stats_a, stats_b
    if assumption is Assumption.NON_BIPARTITE_FACTOR:
        return [
            (+1, a.cw4, b.cw4),
            (-1, a.d * a.d, b.d * b.d),
            (-1, a.w2, b.w2),
            (+1, a.d, b.d),
        ]
    if assumption is Assumption.SELF_LOOPS_FACTOR:
        ones = np.ones(a.n, dtype=np.int64)
        cw4_m = 2 * a.s + a.d * a.d + a.w2 + 5 * a.d + ones  # diag((A+I)⁴), A bipartite
        d_m = a.d + ones
        w2_m = a.w2 + 2 * a.d + ones
        return [
            (+1, cw4_m, b.cw4),
            (-1, d_m * d_m, b.d * b.d),
            (-1, w2_m, b.w2),
            (+1, d_m, b.d),
        ]
    raise ValueError(f"unknown assumption {assumption!r}")  # pragma: no cover


def vertex_squares_from_stats(
    stats_a: FactorStats, stats_b: FactorStats, assumption: Assumption
) -> np.ndarray:
    """``s_C`` as the term-by-term ``np.kron`` sum of :func:`vertex_terms`."""
    acc = np.zeros(stats_a.n * stats_b.n, dtype=np.int64)
    for sign, left, right in vertex_terms(stats_a, stats_b, assumption):
        acc += sign * np.kron(left, right)
    half, rem = np.divmod(acc, 2)
    assert not rem.any(), "vertex square formula must yield even closed-walk excess"
    return half


def global_squares_from_stats(
    stats_a: FactorStats, stats_b: FactorStats, assumption: Assumption
) -> int:
    """Sublinear global count from :func:`vertex_terms`:
    ``Σ (x ⊗ y) = (Σ x)(Σ y)``, exact Python ints.

    Needs no Assumption-1 validation: the closed forms are pure
    closed-walk algebra and hold for any loop-free factors.
    """
    acc = 0
    for sign, left, right in vertex_terms(stats_a, stats_b, assumption):
        acc += sign * int(left.sum()) * int(right.sum())
    half, rem = divmod(acc, 2)
    assert rem == 0
    total, rem4 = divmod(half, 4)
    assert rem4 == 0, "sum of vertex square counts must be divisible by 4"
    return total


def vertex_squares_product_reference(bk: BipartiteKronecker) -> np.ndarray:
    """``s_C`` of an Assumption-1 product from the printed vertex forms."""
    stats_a, stats_b = bk.factor_stats()
    return vertex_squares_from_stats(stats_a, stats_b, bk.assumption)


# ---------------------------------------------------------------------------
# Edge forms (Thm. 5 and the derived 1(ii) variant)
# ---------------------------------------------------------------------------


def _on_pattern(adj, values: np.ndarray, at_row: bool) -> sp.csr_array:
    """``values[row]`` (or ``values[col]``) at every stored entry of ``adj``."""
    coo = sp.csr_array(adj).tocoo()
    data = values[coo.row] if at_row else values[coo.col]
    return sp.csr_array(sp.coo_array((data, (coo.row, coo.col)), shape=coo.shape))


def _w3_on_edges(stats: FactorStats) -> sp.csr_array:
    """``X³ ∘ X = ◇ + (d 1ᵗ + 1 dᵗ) ∘ X − X`` from the factor's counts."""
    ones = np.ones(stats.n, dtype=np.int64)
    return sp.csr_array(
        stats.diamond
        + _on_pattern(stats.adj, stats.d, True)
        + _on_pattern(stats.adj, stats.d - ones, False)
    )


def edge_terms(stats_a: FactorStats, stats_b: FactorStats, assumption: Assumption):
    """``[(sign, left_matrix, right_matrix), ...]`` with
    ``◇_C = Σ sign · left ⊗ right`` on the product pattern."""
    a, b = stats_a, stats_b
    right = [
        sp.csr_array(b.adj, dtype=np.int64),
        _w3_on_edges(b),
        _on_pattern(b.adj, b.d, True),
        _on_pattern(b.adj, b.d, False),
    ]
    if assumption is Assumption.NON_BIPARTITE_FACTOR:
        m_adj, w3_m, d_m = sp.csr_array(a.adj, dtype=np.int64), _w3_on_edges(a), a.d
    elif assumption is Assumption.SELF_LOOPS_FACTOR:
        eye = sp.identity(a.n, dtype=np.int64, format="csr")
        m_adj = sp.csr_array(a.adj + eye)
        # (A+I)³ ∘ (A+I) = A³∘A + 3A + 3·Diag(d) + I   (A bipartite, loop-free)
        w3_m = sp.csr_array(
            _w3_on_edges(a) + 3 * a.adj + 3 * sp.diags_array(a.d, format="csr", dtype=None) + eye
        )
        d_m = a.d + 1
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown assumption {assumption!r}")
    left = [m_adj, w3_m, _on_pattern(m_adj, d_m, True), _on_pattern(m_adj, d_m, False)]
    return list(zip((+1, +1, -1, -1), left, right))


def _edge_term_sum(stats_a, stats_b, assumption, pattern) -> sp.csr_array:
    """Sum the ``sp.kron`` terms of :func:`edge_terms` and re-anchor onto
    ``pattern`` (the product adjacency): scipy's sparse addition may
    prune entries whose terms cancel to zero, but the contract is
    "square-free edges stored as explicit zeros"."""
    acc = None
    for sign, left, right in edge_terms(stats_a, stats_b, assumption):
        part = sign * sp.kron(left, right, format="csr")
        acc = part if acc is None else acc + part
    pattern = sp.coo_array(pattern)
    if pattern.nnz == 0:
        return sp.csr_array(pattern.shape, dtype=np.int64)
    vals = np.asarray(sp.csr_array(acc)[pattern.row, pattern.col]).ravel().astype(np.int64)
    return sp.csr_array(sp.coo_array((vals, (pattern.row, pattern.col)), shape=pattern.shape))


def edge_squares_product_reference(bk: BipartiteKronecker) -> sp.csr_array:
    """``◇_C`` of an Assumption-1 product from the printed edge forms."""
    stats_a, stats_b = bk.factor_stats()
    pattern = sp.kron(bk.M.adj, bk.B.graph.adj, format="coo")
    return _edge_term_sum(stats_a, stats_b, bk.assumption, pattern)


# ---------------------------------------------------------------------------
# Multi-factor fold
# ---------------------------------------------------------------------------


def combine_stats(stats_a: FactorStats, stats_b: FactorStats) -> FactorStats:
    """Statistics of ``A ⊗ B`` from the factors' statistics.

    Both inputs describe loop-free graphs; so does the output.  No
    counting is performed on the product: ``d``/``w2`` are Kronecker
    products, ``s`` the Thm. 3 term sum and ``◇`` the Thm. 5 term sum
    (whose derivations never use bipartiteness, only loop-freeness).
    Folding it over a factor list gives a multi-factor reference that
    shares no code with the chain engine.
    """
    d = np.kron(stats_a.d, stats_b.d)
    w2 = np.kron(stats_a.w2, stats_b.w2)
    s = vertex_squares_from_stats(stats_a, stats_b, Assumption.NON_BIPARTITE_FACTOR)
    cw4 = 2 * s + d * d + w2 - d
    adj = sp.csr_array(sp.kron(stats_a.adj, stats_b.adj, format="csr"))
    diamond = _edge_term_sum(stats_a, stats_b, Assumption.NON_BIPARTITE_FACTOR, adj)
    n = stats_a.n * stats_b.n
    return FactorStats(n=n, d=d, w2=w2, s=s, cw4=cw4, diamond=diamond, adj=adj)


def multi_kronecker_stats(factors: Sequence[Graph]) -> FactorStats:
    """Exact statistics of ``factors[0] ⊗ factors[1] ⊗ …``: a
    left-associative fold of :func:`combine_stats`."""
    if not factors:
        raise ValueError("need at least one factor")
    acc = FactorStats.from_graph(factors[0])
    for g in factors[1:]:
        acc = combine_stats(acc, FactorStats.from_graph(g))
    return acc


def multi_kronecker_global_squares(factors: Sequence[Graph]) -> int:
    """Exact global 4-cycle count of a multi-factor product.

    Uses the vector-sum factorisation at the last fold, so only the
    second-to-last intermediate's statistics are materialized.
    """
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        return FactorStats.from_graph(factors[0]).global_squares()
    acc = multi_kronecker_stats(factors[:-1])
    last = FactorStats.from_graph(factors[-1])
    return global_squares_from_stats(acc, last, Assumption.NON_BIPARTITE_FACTOR)
