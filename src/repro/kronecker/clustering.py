"""Bipartite edge clustering coefficients on products (§III-B3).

Def. 10: ``Γ(i, j) = ◇_ij / ((d_i - 1)(d_j - 1))`` for an edge whose
endpoints both have degree >= 2.

Thm. 6 (Assumption 1(i)): for a product edge ``(p, q)`` built from
factor edges ``(i, j)`` and ``(k, l)`` with all four factor degrees
>= 2::

    Γ_C(p, q) >= ψ(i, j, k, l) Γ_A(i, j) Γ_B(k, l)

    ψ = (d_i-1)(d_k-1)(d_j-1)(d_l-1) / ((d_i d_k - 1)(d_j d_l - 1))
    ψ ∈ [1/9, 1)

-- the paper's "edge clustering coefficients are controllable" scaling
law.  ``thm6_lower_bound`` evaluates both sides for every product edge
so the bench can report the bound's empirical tightness (the paper
notes ``◇_pq`` is typically much larger than ``◇_ij ◇_kl``).
"""

from __future__ import annotations

import numpy as np

from repro.kronecker.assumptions import Assumption, BipartiteKronecker
from repro.kronecker.ground_truth import edge_squares_product
from repro.kronecker.multifactor import KroneckerChain

__all__ = [
    "edge_clustering_ground_truth",
    "psi_factor",
    "psi_factor_self_loops",
    "thm6_lower_bound",
    "thm6_lower_bound_self_loops",
]


def edge_clustering_ground_truth(bk: BipartiteKronecker):
    """Ground-truth ``Γ_C`` for every product edge with valid degrees.

    Returns ``(p, q, gamma)`` parallel arrays over the directed stored
    entries (each undirected edge appears twice, (p,q) and (q,p), like
    the adjacency itself); entries where an endpoint has degree < 2 are
    dropped (Def. 10's domain).
    """
    diamond = edge_squares_product(bk).tocoo()
    d_c = bk.implicit.degrees()
    denom = (d_c[diamond.row] - 1) * (d_c[diamond.col] - 1)
    keep = denom > 0
    return (
        diamond.row[keep].astype(np.int64),
        diamond.col[keep].astype(np.int64),
        diamond.data[keep] / denom[keep],
    )


def psi_factor(d_i, d_j, d_k, d_l):
    """The Thm. 6 correction ``ψ(i, j, k, l)`` (vectorised).

    All degrees must be >= 2; the paper proves ``ψ ∈ [1/9, 1)``.
    """
    d_i, d_j, d_k, d_l = (np.asarray(x, dtype=np.float64) for x in (d_i, d_j, d_k, d_l))
    if np.any(d_i < 2) or np.any(d_j < 2) or np.any(d_k < 2) or np.any(d_l < 2):
        raise ValueError("psi requires all four factor degrees >= 2 (Thm. 6)")
    num = (d_i - 1) * (d_k - 1) * (d_j - 1) * (d_l - 1)
    den = (d_i * d_k - 1) * (d_j * d_l - 1)
    return num / den


def psi_factor_self_loops(d_i, d_j, d_k, d_l):
    """Our derived ψ'' for Assumption 1(ii) cross edges (vectorised).

    The paper states Thm. 6 only for case (i); the analogous bound for
    ``C = (A + I_A) ⊗ B`` on *cross* edges (``(i,j) ∈ E_A``) is

        Γ_C(p, q) >= ψ'' Γ_A(i, j) Γ_B(k, l),
        ψ'' = (d_i−1)(d_j−1)(d_k−1)(d_l−1)
              / (((d_i+1)d_k − 1)((d_j+1)d_l − 1))

    since ``d_p = (d_i+1)d_k`` under the loop augmentation, and the
    derived edge formula's remainder beyond ``◇_ij ◇_kl`` is strictly
    positive for all degrees >= 2 (see docs/derivations.md §2c).
    ``ψ'' ∈ [1/25, 1)``; loop-block edges (``i = j``) have no factor-A
    edge and are outside the bound's scope.  All degrees must be >= 2.
    """
    d_i, d_j, d_k, d_l = (np.asarray(x, dtype=np.float64) for x in (d_i, d_j, d_k, d_l))
    if np.any(d_i < 2) or np.any(d_j < 2) or np.any(d_k < 2) or np.any(d_l < 2):
        raise ValueError("psi'' requires all four factor degrees >= 2")
    num = (d_i - 1) * (d_j - 1) * (d_k - 1) * (d_l - 1)
    den = ((d_i + 1) * d_k - 1) * ((d_j + 1) * d_l - 1)
    return num / den


def thm6_lower_bound_self_loops(bk: BipartiteKronecker):
    """Evaluate the derived 1(ii) scaling law on every cross edge.

    Same output contract as :func:`thm6_lower_bound`; applicable edges
    are products of a factor-``A`` edge and a factor-``B`` edge with
    all four factor degrees >= 2 (loop-block edges are skipped -- no
    ``Γ_A`` exists for them).
    """
    if bk.assumption is not Assumption.SELF_LOOPS_FACTOR:
        raise ValueError("use thm6_lower_bound for Assumption 1(i) products")
    from repro.analytics.fourcycles import edge_squares_matrix

    d_a = bk.A.degrees().astype(np.int64)
    d_b = bk.B.graph.degrees().astype(np.int64)
    dia_a = edge_squares_matrix(bk.A).tocoo()
    dia_b = edge_squares_matrix(bk.B.graph).tocoo()
    n_b = bk.B.graph.n

    def _valid(coo, d):
        denom = (d[coo.row] - 1) * (d[coo.col] - 1)
        ok = denom > 0
        return coo.row[ok], coo.col[ok], coo.data[ok] / denom[ok]

    ai, aj, gamma_a = _valid(dia_a, d_a)
    bk_row, bl, gamma_b = _valid(dia_b, d_b)
    if ai.size == 0 or bk_row.size == 0:
        empty = np.empty(0)
        return {"p": empty, "q": empty, "gamma_c": empty, "bound": empty, "ratio": empty}
    na, nb = ai.size, bk_row.size
    ii = np.repeat(ai, nb)
    jj = np.repeat(aj, nb)
    kk = np.tile(bk_row, na)
    ll = np.tile(bl, na)
    ga = np.repeat(gamma_a, nb)
    gb = np.tile(gamma_b, na)
    psi = psi_factor_self_loops(d_a[ii], d_a[jj], d_b[kk], d_b[ll])
    bound = psi * ga * gb
    p = ii * n_b + kk
    q = jj * n_b + ll
    # Ground-truth ◇_C at those edges, point-wise -- no product-sized
    # matrix is materialized or fancy-indexed.
    vals, _ = KroneckerChain.from_bipartite(bk).edge_squares(p, q)
    d_c = bk.implicit.degrees()
    gamma_c = vals / ((d_c[p] - 1) * (d_c[q] - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(gamma_c > 0, bound / gamma_c, np.inf)
    return {"p": p, "q": q, "gamma_c": gamma_c, "bound": bound, "ratio": ratio}


def thm6_lower_bound(bk: BipartiteKronecker):
    """Evaluate Thm. 6 on every applicable product edge.

    Applicable edges are those built from a factor-``A`` edge and a
    factor-``B`` edge with all four factor degrees >= 2 (under
    Assumption 1(ii) the loop-block edges of ``(A+I) ⊗ B`` have no
    factor-``A`` edge and are skipped; Thm. 6 is stated for 1(i)).

    Returns a dict of parallel arrays: product edge endpoints ``p, q``,
    ground-truth ``gamma_c``, the bound ``psi * gamma_a * gamma_b``,
    and the tightness ratio ``bound / gamma_c`` (<= 1 when the theorem
    holds; tests assert it always is).
    """
    a_stats_needed = bk.A
    d_a = a_stats_needed.degrees().astype(np.int64)
    d_b = bk.B.graph.degrees().astype(np.int64)
    from repro.analytics.fourcycles import edge_squares_matrix

    dia_a = edge_squares_matrix(bk.A).tocoo()
    dia_b = edge_squares_matrix(bk.B.graph).tocoo()
    n_b = bk.B.graph.n

    # Factor-edge clustering coefficients (directed entries).
    def _gamma(coo, d):
        denom = (d[coo.row] - 1) * (d[coo.col] - 1)
        ok = denom > 0
        return coo.row[ok], coo.col[ok], coo.data[ok] / denom[ok], d

    ai, aj, gamma_a, _ = _gamma(dia_a, d_a)
    bk_row, bl, gamma_b, _ = _gamma(dia_b, d_b)
    if ai.size == 0 or bk_row.size == 0:
        empty = np.empty(0)
        return {"p": empty, "q": empty, "gamma_c": empty, "bound": empty, "ratio": empty}

    # All cross pairs of valid factor edges -> product edges.
    na, nb = ai.size, bk_row.size
    ii = np.repeat(ai, nb)
    jj = np.repeat(aj, nb)
    kk = np.tile(bk_row, na)
    ll = np.tile(bl, na)
    ga = np.repeat(gamma_a, nb)
    gb = np.tile(gamma_b, na)
    psi = psi_factor(d_a[ii], d_a[jj], d_b[kk], d_b[ll])
    bound = psi * ga * gb
    p = ii * n_b + kk
    q = jj * n_b + ll

    # Ground-truth Γ_C at those edges from the point-wise formula -- no
    # product-sized matrix is materialized or fancy-indexed.
    vals, _ = KroneckerChain.from_bipartite(bk).edge_squares(p, q)
    d_c = bk.implicit.degrees()
    gamma_c = vals / ((d_c[p] - 1) * (d_c[q] - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(gamma_c > 0, bound / gamma_c, np.inf)
    return {"p": p, "q": q, "gamma_c": gamma_c, "bound": bound, "ratio": ratio}
