"""Ground-truth 4-cycle formulas for bipartite Kronecker products.

This module implements §III-B.  Everything is computed from per-factor
statistics (:class:`FactorStats`) of size ``O(|E_A| + |E_B|)``; the
product itself is never touched.  Cost model (§I): local vertex counts
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

Point-wise versions of all four power the O(1)-per-query oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.kronecker import kernels
from repro.kronecker.assumptions import Assumption
from repro.kronecker.kernels import EdgeIndex, vertex_terms as _vertex_terms

# scipy.sparse and the graph model are imported inside the functions that
# build statistics or run the ``sp.kron`` references, so a served oracle
# (which only reads CSR triples) never loads them.
if TYPE_CHECKING:  # pragma: no cover
    import scipy.sparse as sp

    from repro.graphs.graph import Graph
    from repro.kronecker.assumptions import BipartiteKronecker

__all__ = [
    "CSRTriple",
    "FactorStats",
    "vertex_squares_product",
    "vertex_squares_product_reference",
    "edge_squares_product",
    "edge_squares_product_reference",
    "global_squares_product",
    "squares_if_square_free_factors",
]


class CSRTriple(NamedTuple):
    """An immutable record of a square CSR matrix's three arrays.

    What :func:`repro.serve.artifact.load_oracle` puts in a
    :class:`FactorStats`' ``adj``/``diamond`` instead of a
    ``scipy.sparse.csr_array``: the arrays stay as loaded (page-cache
    ``np.memmap`` views under ``mmap=True``), and the query path reads
    nothing else of a CSR matrix -- ``data``, ``indices``, ``indptr``
    and ``nnz`` -- so either type serves.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


@dataclass(frozen=True)
class FactorStats:
    """Sublinear-size statistics of one loop-free factor.

    All the paper's formulas consume factors only through these fields;
    computing them costs one sparse ``A²`` product
    (``O(Σ_i d_i²)`` work) and ``O(|E|)`` memory.
    """

    n: int
    d: np.ndarray          #: degree vector ``A 1``
    w2: np.ndarray         #: two-walk vector ``A² 1``
    s: np.ndarray          #: vertex square counts (Def. 8)
    cw4: np.ndarray        #: ``diag(A⁴) = 2s + d² + w2 - d``
    #: edge square counts ``◇`` (Def. 9), adjacency pattern; like ``adj``,
    #: a scipy CSR when built from a graph, a :class:`CSRTriple` when loaded
    diamond: sp.csr_array | CSRTriple
    adj: sp.csr_array | CSRTriple  #: the adjacency itself (for edge-aligned products)

    @classmethod
    def from_graph(cls, graph: Graph) -> "FactorStats":
        from repro.analytics.fourcycles import (
            closed_walks4,
            edge_squares_matrix,
            vertex_squares_matrix,
        )

        if graph.has_self_loops:
            raise ValueError(
                "FactorStats requires a loop-free factor (paper §II-B); "
                "Assumption 1(ii)'s +I_A is handled by the formula layer, "
                "not by the factor"
            )
        d = graph.degrees().astype(np.int64)
        w2 = np.asarray(graph.adj @ d).ravel().astype(np.int64)
        s = vertex_squares_matrix(graph)
        cw4 = closed_walks4(graph)
        diamond = edge_squares_matrix(graph)
        return cls(n=graph.n, d=d, w2=w2, s=s, cw4=cw4, diamond=diamond, adj=graph.adj)

    def global_squares(self) -> int:
        """Total 4-cycles in the factor: ``Σ s / 4``."""
        total, rem = divmod(int(self.s.sum()), 4)
        assert rem == 0
        return total

    @cached_property
    def edge_index(self) -> EdgeIndex:
        """Derived-quantity cache: sorted edge keys plus edge-aligned
        ``◇``/``W³``/degree arrays (:class:`~repro.kronecker.kernels.EdgeIndex`).

        Memoized on the instance (``cached_property`` writes straight
        into ``__dict__``, bypassing the frozen-dataclass guard), so
        repeated formula, oracle, and streaming calls stop recomputing
        the same sparse intermediates.
        """
        return EdgeIndex.from_stats(self)


# ---------------------------------------------------------------------------
# Vertex formulas (Thms. 3 and 4)
# ---------------------------------------------------------------------------


def vertex_squares_product(bk: BipartiteKronecker) -> np.ndarray:
    """Ground-truth vertex 4-cycle counts ``s_C`` (Thm. 3 / Thm. 4).

    Dense int64 vector of length ``n_C = n_A * n_B``; vertex
    ``p = γ(i, k)`` is at position ``i * n_B + k``.
    """
    stats_a, stats_b = bk.factor_stats()
    return _vertex_squares_from_stats(stats_a, stats_b, bk.assumption)


def _vertex_squares_from_stats(
    stats_a: FactorStats, stats_b: FactorStats, assumption: Assumption
) -> np.ndarray:
    """Fused evaluation (:func:`~repro.kronecker.kernels.vertex_squares_grid`):
    one stacked integer matmul instead of four summed ``np.kron`` terms."""
    return kernels.vertex_squares_grid(stats_a, stats_b, assumption)


def _vertex_squares_from_stats_kron(
    stats_a: FactorStats, stats_b: FactorStats, assumption: Assumption
) -> np.ndarray:
    """Legacy term-by-term ``np.kron`` evaluation.

    Kept as the independent reference implementation the property tests
    and ``bench_kernels`` compare the fused kernel against (bit-identical
    by construction: same int64 terms, different evaluation order).
    """
    acc = np.zeros(stats_a.n * stats_b.n, dtype=np.int64)
    for sign, left, right in _vertex_terms(stats_a, stats_b, assumption):
        acc += sign * np.kron(left, right)
    half, rem = np.divmod(acc, 2)
    assert not rem.any(), "vertex square formula must yield even closed-walk excess"
    return half


def global_squares_product(bk: BipartiteKronecker) -> int:
    """Ground-truth global 4-cycle count of ``G_C`` -- **sublinear**.

    Uses ``Σ (x ⊗ y) = (Σ x)(Σ y)``: only factor-sized reductions are
    formed, never the ``n_C``-length vector.  This is the §I claim that
    "global scalar quantities are computed sublinearly".
    """
    stats_a, stats_b = bk.factor_stats()
    acc = 0
    for sign, left, right in _vertex_terms(stats_a, stats_b, bk.assumption):
        acc += sign * int(left.sum()) * int(right.sum())
    half, rem = divmod(acc, 2)
    assert rem == 0
    total, rem4 = divmod(half, 4)
    assert rem4 == 0, "sum of vertex square counts must be divisible by 4"
    return total


# ---------------------------------------------------------------------------
# Edge formulas (Thm. 5 and the derived 1(ii) variant)
# ---------------------------------------------------------------------------


def _w3_on_edges(stats: FactorStats) -> sp.csr_array:
    """``X³ ∘ X = ◇ + (d 1ᵗ + 1 dᵗ) ∘ X - X`` from stored statistics.

    Served from the :class:`~repro.kronecker.kernels.EdgeIndex` cache:
    the edge-aligned ``W³`` values already exist, so this is one sparse
    assembly instead of a sparse addition per call.
    """
    import scipy.sparse as sp

    idx = stats.edge_index
    return sp.csr_array(
        sp.coo_array((idx.w3, (idx.rows, idx.cols)), shape=(stats.n, stats.n))
    )


def _edge_terms(stats_a: FactorStats, stats_b: FactorStats, assumption: Assumption):
    """``[(sign, left_matrix, right_matrix), ...]`` with
    ``◇_C = Σ sign * left ⊗ right``."""
    import scipy.sparse as sp

    a, b = stats_a, stats_b
    coo_a = a.adj.tocoo()
    coo_b = b.adj.tocoo()
    w3_b = _w3_on_edges(b)
    drow_b = sp.csr_array(
        sp.coo_array((b.d[coo_b.row], (coo_b.row, coo_b.col)), shape=b.adj.shape)
    )
    dcol_b = sp.csr_array(
        sp.coo_array((b.d[coo_b.col], (coo_b.row, coo_b.col)), shape=b.adj.shape)
    )
    if assumption is Assumption.NON_BIPARTITE_FACTOR:
        w3_a = _w3_on_edges(a)
        drow_a = sp.csr_array(
            sp.coo_array((a.d[coo_a.row], (coo_a.row, coo_a.col)), shape=a.adj.shape)
        )
        dcol_a = sp.csr_array(
            sp.coo_array((a.d[coo_a.col], (coo_a.row, coo_a.col)), shape=a.adj.shape)
        )
        return [
            (+1, sp.csr_array(a.adj, dtype=np.int64), sp.csr_array(b.adj, dtype=np.int64)),
            (+1, w3_a, w3_b),
            (-1, drow_a, drow_b),
            (-1, dcol_a, dcol_b),
        ]
    if assumption is Assumption.SELF_LOOPS_FACTOR:
        eye = sp.identity(a.n, dtype=np.int64, format="csr")
        m_adj = sp.csr_array(a.adj + eye)
        # (A+I)³ ∘ (A+I) = A³∘A + 3A + 3·Diag(d) + I   (A bipartite, loop-free)
        w3_m = sp.csr_array(
            _w3_on_edges(a) + 3 * a.adj + 3 * sp.diags_array(a.d, format="csr", dtype=None) + eye
        )
        coo_m = m_adj.tocoo()
        d_m = a.d + 1
        drow_m = sp.csr_array(
            sp.coo_array((d_m[coo_m.row], (coo_m.row, coo_m.col)), shape=m_adj.shape)
        )
        dcol_m = sp.csr_array(
            sp.coo_array((d_m[coo_m.col], (coo_m.row, coo_m.col)), shape=m_adj.shape)
        )
        return [
            (+1, m_adj, sp.csr_array(b.adj, dtype=np.int64)),
            (+1, w3_m, w3_b),
            (-1, drow_m, drow_b),
            (-1, dcol_m, dcol_b),
        ]
    raise ValueError(f"unknown assumption {assumption!r}")  # pragma: no cover


def edge_squares_product(bk: BipartiteKronecker) -> sp.csr_array:
    """Ground-truth edge 4-cycle counts ``◇_C`` (Thm. 5 / derived (ii)).

    Sparse symmetric matrix whose pattern equals the product adjacency
    (explicit zeros kept for square-free edges).  Memory and time are
    ``O(|E_C|)`` -- linear in the product's edges, computed *without*
    ever forming ``C³``.

    Fused evaluation
    (:func:`~repro.kronecker.kernels.product_edge_squares_csr`): the
    point-wise coefficient form is applied directly on the product's
    entry list, so no intermediate ``sp.kron`` term and no re-anchoring
    extraction is ever formed -- one value-block allocation instead of
    ~5 full-size intermediates, values bit-identical to the legacy
    term-by-term path (kept as :func:`_edge_squares_product_kron`).
    """
    stats_a, stats_b = bk.factor_stats()
    m_coo = bk.M.adj.tocoo()
    return kernels.product_edge_squares_csr(
        stats_a,
        stats_b,
        bk.assumption,
        m_coo.row.astype(np.int64),
        m_coo.col.astype(np.int64),
    )


def _edge_squares_product_kron(bk: BipartiteKronecker) -> sp.csr_array:
    """Legacy ``sp.kron`` term-sum evaluation of ``◇_C``.

    Materializes the four Kronecker terms of Thm. 5 (or the derived
    1(ii) set), sums them, and re-anchors onto the product adjacency
    pattern.  Kept as the independent reference the property tests and
    ``bench_kernels`` compare :func:`edge_squares_product` against.
    """
    import scipy.sparse as sp

    stats_a, stats_b = bk.factor_stats()
    terms = _edge_terms(stats_a, stats_b, bk.assumption)
    acc = None
    for sign, left, right in terms:
        part = sp.kron(left, right, format="csr")
        acc = sign * part if acc is None else acc + sign * part
    acc = sp.csr_array(acc)
    # Re-anchor onto the product adjacency pattern: scipy's sparse
    # addition may prune entries whose terms cancel to zero, but the
    # contract is "pattern equals the product adjacency, square-free
    # edges stored as explicit zeros".
    pattern = sp.kron(bk.M.adj, bk.B.graph.adj, format="coo")
    if pattern.nnz == 0:
        return sp.csr_array(pattern.shape, dtype=np.int64)
    vals = np.asarray(acc[pattern.row, pattern.col]).ravel()
    return sp.csr_array(
        sp.coo_array((vals, (pattern.row, pattern.col)), shape=pattern.shape)
    )


# ---------------------------------------------------------------------------
# Public reference-path hooks
# ---------------------------------------------------------------------------


def vertex_squares_product_reference(bk: BipartiteKronecker) -> np.ndarray:
    """``s_C`` via the legacy term-by-term ``np.kron`` path.

    Public hook for the differential verifier
    (:mod:`repro.refcheck.differ`): same closed forms as
    :func:`vertex_squares_product` but a disjoint evaluation route, so
    fused-kernel regressions show up as a divergence between the two.
    """
    stats_a, stats_b = bk.factor_stats()
    return _vertex_squares_from_stats_kron(stats_a, stats_b, bk.assumption)


def edge_squares_product_reference(bk: BipartiteKronecker) -> sp.csr_array:
    """``◇_C`` via the legacy ``sp.kron`` term-sum path.

    Public hook for the differential verifier; see
    :func:`vertex_squares_product_reference`.
    """
    return _edge_squares_product_kron(bk)


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
    stats_a = FactorStats.from_graph(A)
    stats_b = FactorStats.from_graph(B)
    if stats_a.s.any() or stats_b.s.any():
        raise ValueError("factors are not square-free; use global_squares_product")
    acc = 0
    for sign, left, right in _vertex_terms(stats_a, stats_b, Assumption.NON_BIPARTITE_FACTOR):
        acc += sign * int(left.sum()) * int(right.sum())
    return acc // 2 // 4
