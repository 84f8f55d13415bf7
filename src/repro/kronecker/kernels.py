"""Fused kernels for the point-wise ground-truth formulas.

This is the hot core of the formula layer.  The closed forms of
Thms. 3/4/5 (and the derived Assumption-1(ii) edge formula) are all
sums of a handful of Kronecker-structured terms::

    s_C(γ(i, k))        = ½ Σ_t  sign_t · left_t[i] · right_t[k]
    ◇_C(γ(i,k), γ(j,l)) = 1 + α(i,j)·w3_B(k,l) − β_i(i,j)·d_B(k)
                            − β_j(i,j)·d_B(l)

so they can be evaluated *point-wise* on arbitrary index batches with
one vectorized pass -- no ``sp.kron`` term, no sparse addition, no
re-anchoring extraction.  The whole-product evaluations become stacked
integer matmuls (one output allocation, exact int64 arithmetic, values
bit-identical to the term-by-term ``sp.kron`` evaluation they replace);
batched point queries become gather + fused arithmetic.

The *batch primitives* -- the open-addressing hash table behind every
factor edge lookup, the cache-blocked vertex-square loops and the
in-place edge fuse -- are plain numpy functions here too, next to the
orchestration that calls them (coefficient algebra, bounds checks, CSR
assembly).

Everything here consumes factors only through
:class:`~repro.kronecker.ground_truth.FactorStats` plus the
:class:`EdgeIndex` derived-quantity cache (sorted edge keys,
edge-aligned ``◇``/``W³``/degree arrays) that ``FactorStats`` memoizes
per factor, so repeated formula/oracle/stream calls never recompute a
sparse intermediate.

The per-entry coefficient forms (α, β_i, β_j) by assumption:

========================  ======================  ==========  ==========
left entry                α                        β_i         β_j
========================  ======================  ==========  ==========
1(i), ``(i,j) ∈ E_A``     ◇_ij + d_i + d_j − 1    d_i         d_j
1(ii) cross               ◇_ij + d_i + d_j + 2    d_i + 1     d_j + 1
1(ii) loop (``i = j``)    3·d_i + 1               d_i + 1     d_i + 1
========================  ======================  ==========  ==========

with ``w3_B(k,l) = ◇_kl + d_k + d_l − 1`` on the right factor (see
docs/derivations.md §2b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
import scipy.sparse as sp

from repro.kronecker.assumptions import Assumption

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.kronecker.ground_truth import FactorStats

__all__ = [
    "EdgeIndex",
    "edge_coefficients",
    "edge_squares_batch",
    "product_edge_squares_csr",
    "vertex_terms",
    "vertex_term_matrices",
    "vertex_squares_grid",
    "vertex_squares_batch",
    "vertex_squares_codes",
    "table_bits",
    "build_edge_table",
    "probe_edge_table",
]

#: Cache-blocked batch evaluation: the vertex loops and the edge formula
#: run in chunks of this many elements so every temporary stays
#: L2-resident -- intermediate passes cost cache bandwidth, not DRAM
#: round-trips.
_BATCH_CHUNK = 16384

#: Fibonacci multiplicative hashing (Knuth): ``⌊2^64 / φ⌋``, odd.
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


# ---------------------------------------------------------------------------
# Open-addressing edge table
# ---------------------------------------------------------------------------


def table_bits(n_keys: int) -> tuple[int, int]:
    """``(size, shift)`` of the probe table for ``n_keys`` entries: the
    smallest power of two (at least 8) holding them at load factor
    <= 1/4, and the hash shift ``64 - log2(size)``."""
    bits = max(3, int(np.ceil(np.log2(max(4 * n_keys, 8)))))
    return 1 << bits, 64 - bits


def _hash_slots(keys: np.ndarray, shift: int) -> np.ndarray:
    """Table slot per key for a power-of-two table of ``2^(64-shift)``."""
    return ((keys.astype(np.uint64) * _HASH_MULT) >> np.uint64(shift)).astype(np.int64)


def build_edge_table(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Open-addressing hash table ``(table_keys, table_vals, shift)``
    over unique non-negative int64 keys: load factor <= 1/4, Fibonacci
    hashing, linear probing, ``-1`` marks an empty slot.

    Insertion runs in vectorized rounds: each round places the first
    pending key per free slot, the rest advance one slot.
    """
    size, shift = table_bits(keys.size)
    table_keys = np.full(size, -1, dtype=np.int64)
    table_vals = np.zeros(size, dtype=np.int64)
    pend_k, pend_v = keys, vals
    pend_p = _hash_slots(pend_k, shift)
    mask = size - 1
    while pend_k.size:
        free = table_keys[pend_p] == -1
        slots = pend_p[free]
        _, first = np.unique(slots, return_index=True)
        writers = np.flatnonzero(free)[first]
        table_keys[pend_p[writers]] = pend_k[writers]
        table_vals[pend_p[writers]] = pend_v[writers]
        placed = np.zeros(pend_k.size, dtype=bool)
        placed[writers] = True
        keep = ~placed
        pend_k, pend_v = pend_k[keep], pend_v[keep]
        pend_p = (pend_p[keep] + 1) & mask
    return table_keys, table_vals, shift


def probe_edge_table(
    table_keys: np.ndarray, table_vals: np.ndarray, shift: int, query_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(found, vals)`` per query key of a :func:`build_edge_table`
    table; misses report ``vals = 0``.

    One hash gather answers most queries; collision survivors advance
    slot-by-slot on a shrinking pending subset.
    """
    mask = table_keys.size - 1
    pos = _hash_slots(query_keys, shift)
    # ``pos`` is masked to the table size by construction, so the
    # gathers can skip numpy's bounds checking (mode="clip").
    slot_keys = np.take(table_keys, pos, mode="clip")
    pending = np.flatnonzero((slot_keys != query_keys) & (slot_keys != -1))
    while pending.size:
        nxt = (pos[pending] + 1) & mask
        pos[pending] = nxt
        fk = table_keys[nxt]
        slot_keys[pending] = fk
        pending = pending[(fk != query_keys[pending]) & (fk != -1)]
    found = slot_keys == query_keys
    vals = np.take(table_vals, pos, mode="clip")
    vals *= found  # zero the misses without a full np.where pass
    return found, vals


# ---------------------------------------------------------------------------
# Per-factor derived-quantity cache
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeIndex:
    """Edge-aligned lookup table for one factor, built once per factor.

    ``rows``/``cols`` enumerate the stored adjacency entries in
    ascending-key order (``key = row · n + col``); the value arrays are
    aligned with that order.  Membership/value queries go through an
    open-addressing hash table (``table_*``) -- ~1 gather per query at
    load factor 1/4, several times faster than per-query binary search
    while staying ``O(|E|)``-sized (:func:`build_edge_table`).
    """

    n: int
    keys: np.ndarray        #: sorted ``row * n + col`` per stored entry
    rows: np.ndarray        #: entry row, aligned with ``keys``
    cols: np.ndarray        #: entry col, aligned with ``keys``
    diamond: np.ndarray     #: ``◇`` per stored entry (Def. 9)
    w3: np.ndarray          #: ``(X³ ∘ X)`` per stored entry
    d_rows: np.ndarray      #: ``d[row]`` per stored entry
    d_cols: np.ndarray      #: ``d[col]`` per stored entry
    table_keys: np.ndarray  #: hash slots -> key (-1 = empty)
    table_vals: np.ndarray  #: hash slots -> ``◇`` value
    table_shift: int        #: ``64 - log2(table size)``

    @classmethod
    def from_stats(cls, stats: "FactorStats") -> "EdgeIndex":
        n = stats.n
        coo = stats.adj.tocoo()
        rows = coo.row.astype(np.int64)
        cols = coo.col.astype(np.int64)
        keys = rows * n + cols
        if keys.size and np.any(np.diff(keys) < 0):  # non-canonical storage
            order = np.argsort(keys, kind="stable")
            keys, rows, cols = keys[order], rows[order], cols[order]
        dia = _sparse_values_at(stats.diamond, rows, cols, n)
        d_rows = stats.d[rows]
        d_cols = stats.d[cols]
        table_keys, table_vals, table_shift = build_edge_table(keys, dia)
        return cls(
            n=n,
            keys=keys,
            rows=rows,
            cols=cols,
            diamond=dia,
            w3=dia + d_rows + d_cols - 1,
            d_rows=d_rows,
            d_cols=d_cols,
            table_keys=table_keys,
            table_vals=table_vals,
            table_shift=table_shift,
        )

    def diamond_at(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(is_edge, ◇)`` for arbitrary index pairs, vectorized.

        Non-edges report ``◇ = 0``.  One hash gather answers most
        queries; collision survivors advance slot-by-slot (linear
        probing, :func:`probe_edge_table`).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self.keys.size == 0:
            shape = np.broadcast(rows, cols).shape
            return np.zeros(shape, dtype=bool), np.zeros(shape, dtype=np.int64)
        qk = rows * self.n + cols
        return probe_edge_table(self.table_keys, self.table_vals, self.table_shift, qk)

    def nbytes(self) -> int:
        """Actual bytes held by the cached arrays (dtype-aware)."""
        arrays = (self.keys, self.rows, self.cols, self.diamond,
                  self.w3, self.d_rows, self.d_cols,
                  self.table_keys, self.table_vals)
        return sum(a.nbytes for a in arrays)


def _sparse_values_at(mat: sp.csr_array, rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Values of a sparse matrix at index pairs (0 where absent),
    without scipy's fancy-index extraction machinery."""
    coo = mat.tocoo()
    mk = coo.row.astype(np.int64) * n + coo.col.astype(np.int64)
    mv = coo.data.astype(np.int64)
    if mk.size and np.any(np.diff(mk) < 0):
        order = np.argsort(mk, kind="stable")
        mk, mv = mk[order], mv[order]
    if mk.size == 0:
        return np.zeros(rows.shape, dtype=np.int64)
    qk = rows * n + cols
    pos = np.minimum(np.searchsorted(mk, qk), mk.size - 1)
    return np.where(mk[pos] == qk, mv[pos], 0)


# ---------------------------------------------------------------------------
# Vertex formulas (Thms. 3 and 4), point-wise
# ---------------------------------------------------------------------------


def vertex_terms(
    stats_a: "FactorStats", stats_b: "FactorStats", assumption: Assumption
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


def vertex_term_matrices(
    stats_a: "FactorStats", stats_b: "FactorStats", assumption: Assumption
) -> tuple[np.ndarray, np.ndarray]:
    """Stack the vertex terms into ``L (t, n_A)`` / ``R (t, n_B)`` with
    the signs folded into ``L``, so ``2 s_C = (Lᵀ R).ravel()``."""
    terms = vertex_terms(stats_a, stats_b, assumption)
    L = np.stack([sign * left for sign, left, _ in terms])
    R = np.stack([right for _, _, right in terms])
    return L, R


def _check_index_range(idx: np.ndarray, n: int, name: str) -> None:
    """Bounds-check a whole index batch with two reductions, so the hot
    gathers below can run with ``mode="clip"`` (no per-element checks)."""
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= n):
        raise IndexError(f"{name} indices out of range for factor of size {n}")


def _halve_even(acc: np.ndarray) -> np.ndarray:
    half, rem = np.divmod(acc, 2)
    assert not np.any(rem), "vertex square formula must yield even closed-walk excess"
    return half


def vertex_squares_grid(
    stats_a: "FactorStats", stats_b: "FactorStats", assumption: Assumption
) -> np.ndarray:
    """Fused ``s_C`` over the whole product, length ``n_A · n_B``.

    One integer matmul (``Lᵀ R``) instead of four full-size ``np.kron``
    terms summed into an accumulator: one output allocation, exact
    int64 arithmetic, bit-identical values.
    """
    L, R = vertex_term_matrices(stats_a, stats_b, assumption)
    return _halve_even((L.T @ R).ravel())


def vertex_squares_batch(
    stats_a: "FactorStats",
    stats_b: "FactorStats",
    assumption: Assumption,
    i: np.ndarray,
    k: np.ndarray,
    term_matrices: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Fused ``s_C(γ(i, k))`` at arbitrary factor-index batches.

    ``term_matrices`` lets a caller (the oracle) reuse precomputed
    ``(L, R)`` stacks across calls.  Evaluation runs in cache-blocked
    gathers, so the only full-batch memory traffic is reading the
    indices and writing the answers.
    """
    i = np.asarray(i, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    L, R = term_matrices if term_matrices is not None else vertex_term_matrices(
        stats_a, stats_b, assumption
    )
    _check_index_range(i, L.shape[1], "i")
    _check_index_range(k, R.shape[1], "k")
    return _blocked_vertex_squares(L, R, i, k)


def vertex_squares_codes(
    stats_a: "FactorStats",
    stats_b: "FactorStats",
    assumption: Assumption,
    ps: np.ndarray,
    term_matrices: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """:func:`vertex_squares_batch` at flat product codes
    ``p = i · n_B + k``.

    The ``divmod`` that splits codes into factor coordinates runs
    inside the cache-blocked loop, so the split indices never make a
    full-size round-trip through DRAM -- this is the oracle's hot path
    for :meth:`~repro.kronecker.oracle.GroundTruthOracle.squares_at_vertices`.
    """
    ps = np.asarray(ps, dtype=np.int64)
    L, R = term_matrices if term_matrices is not None else vertex_term_matrices(
        stats_a, stats_b, assumption
    )
    _check_index_range(ps, L.shape[1] * R.shape[1], "product vertex")
    return _blocked_vertex_squares(L, R, ps)


def _blocked_vertex_squares(
    L: np.ndarray, R: np.ndarray, i: np.ndarray, k: np.ndarray | None = None
) -> np.ndarray:
    """``½ Σ_t L[t, i] · R[t, k]`` per batch element (indices
    pre-validated), asserting the closed-walk excess is even.

    With ``k=None``, ``i`` holds flat codes ``p = i · n_B + k`` and the
    split runs chunk by chunk into reused buffers.
    """
    n_b = R.shape[1]
    n = i.size
    out = np.empty(n, dtype=np.int64)
    chunk = min(_BATCH_CHUNK, max(n, 1))
    acc = np.empty(chunk, dtype=np.int64)
    tmp = np.empty(chunk, dtype=np.int64)
    tmp2 = np.empty(chunk, dtype=np.int64)
    if k is None:
        iv_buf = np.empty(chunk, dtype=np.int64)
        kv_buf = np.empty(chunk, dtype=np.int64)
    or_accumulated = np.int64(0)
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        c = e - s
        if k is None:
            iv, kv = iv_buf[:c], kv_buf[:c]
            np.floor_divide(i[s:e], n_b, out=iv)
            np.multiply(iv, n_b, out=kv)
            np.subtract(i[s:e], kv, out=kv)
        else:
            iv, kv = i[s:e], k[s:e]
        # Σ_t L[t, iv] · R[t, kv] into the chunk buffers; the indices
        # are pre-validated, so the gathers skip bounds checks.
        av, tv, t2 = acc[:c], tmp[:c], tmp2[:c]
        np.take(L[0], iv, out=av, mode="clip")
        np.take(R[0], kv, out=tv, mode="clip")
        av *= tv
        for t in range(1, L.shape[0]):
            np.take(L[t], iv, out=tv, mode="clip")
            np.take(R[t], kv, out=t2, mode="clip")
            tv *= t2
            av += tv
        or_accumulated |= np.bitwise_or.reduce(av)
        np.right_shift(av, 1, out=out[s:e])
    assert not (int(or_accumulated) & 1), (
        "vertex square formula must yield even closed-walk excess"
    )
    return out


# ---------------------------------------------------------------------------
# Edge formulas (Thm. 5 and the derived 1(ii) variant), point-wise
# ---------------------------------------------------------------------------


def edge_coefficients(
    stats_a: "FactorStats",
    assumption: Assumption,
    i: np.ndarray,
    j: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Left-factor coefficient arrays ``(α, β_i, β_j, valid)``.

    For left entries ``(i, j)`` of the *effective* factor ``M`` the
    per-edge count against any right edge ``(k, l)`` is
    ``1 + α·w3_B(k,l) − β_i·d_B(k) − β_j·d_B(l)`` (module docstring
    table).  ``valid`` marks pairs that actually are ``M`` entries --
    ``E_A`` members, plus the diagonal under Assumption 1(ii).
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    _check_index_range(i, stats_a.n, "i")
    _check_index_range(j, stats_a.n, "j")
    found, dia = stats_a.edge_index.diamond_at(i, j)
    d_i = np.take(stats_a.d, i, mode="clip")
    d_j = np.take(stats_a.d, j, mode="clip")
    # ``dia``, ``found``, ``d_i``, ``d_j`` are fresh arrays owned by this
    # call, so α/β/valid are built in place (exact int64 -- evaluation
    # order cannot change the values).
    alpha = dia
    alpha += d_i
    alpha += d_j
    if assumption is Assumption.SELF_LOOPS_FACTOR:
        alpha += 2
        loop = i == j
        if loop.any():
            alpha[loop] = 3 * d_i[loop] + 1
        valid = found
        valid |= loop
        beta_i = d_i
        beta_i += 1
        beta_j = d_j
        beta_j += 1
    elif assumption is Assumption.NON_BIPARTITE_FACTOR:
        alpha -= 1
        beta_i = d_i
        beta_j = d_j
        valid = found
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown assumption {assumption!r}")
    return alpha, beta_i, beta_j, valid


def edge_squares_batch(
    stats_a: "FactorStats",
    stats_b: "FactorStats",
    assumption: Assumption,
    i: np.ndarray,
    j: np.ndarray,
    k: np.ndarray,
    ell: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused ``◇_C`` at arbitrary ``(i, j, k, l)`` batches (the paper's
    factor coordinates; ``l`` is spelled ``ell``).

    Returns ``(values, valid)``: ``valid[t]`` is False (and
    ``values[t]`` 0) when ``(γ(i,k), γ(j,l))`` is not a product edge --
    masking instead of raise-per-query, so millions of speculative
    queries cost one vectorized pass.

    Large 1-D batches are evaluated in cache-sized chunks: the edge
    formula walks ~15 same-length temporaries, and chunking keeps all
    of them L2-resident instead of streaming each pass through DRAM.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    ell = np.asarray(ell, dtype=np.int64)
    n = i.size
    if i.ndim != 1 or n <= _BATCH_CHUNK:
        return _edge_squares_block(stats_a, stats_b, assumption, i, j, k, ell)
    vals = np.empty(n, dtype=np.int64)
    valid = np.empty(n, dtype=bool)
    for s in range(0, n, _BATCH_CHUNK):
        e = min(s + _BATCH_CHUNK, n)
        vals[s:e], valid[s:e] = _edge_squares_block(
            stats_a, stats_b, assumption, i[s:e], j[s:e], k[s:e], ell[s:e]
        )
    return vals, valid


def _edge_squares_block(
    stats_a: "FactorStats",
    stats_b: "FactorStats",
    assumption: Assumption,
    i: np.ndarray,
    j: np.ndarray,
    k: np.ndarray,
    ell: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One cache-sized block of :func:`edge_squares_batch`: gather the
    operands, then fuse ``1 + α·w3_B − β_i·d_B(k) − β_j·d_B(l)`` with
    ``w3_B = ◇_B + d_k + d_l − 1`` in place; invalid slots report 0."""
    alpha, beta_i, beta_j, valid = edge_coefficients(stats_a, assumption, i, j)
    _check_index_range(k, stats_b.n, "k")
    _check_index_range(ell, stats_b.n, "l")
    found_b, vals = stats_b.edge_index.diamond_at(k, ell)
    d_k = np.take(stats_b.d, k, mode="clip")
    d_l = np.take(stats_b.d, ell, mode="clip")
    # Every operand is a fresh array owned by this call, so the formula
    # runs in place: ``vals`` becomes w3_B, then the full value.
    vals += d_k
    vals += d_l
    vals -= 1
    vals *= alpha
    d_k *= beta_i
    vals -= d_k
    d_l *= beta_j
    vals -= d_l
    vals += 1
    valid &= found_b
    vals *= valid  # zero the invalid slots without a full np.where pass
    return vals, valid


def product_edge_squares_csr(
    stats_a: "FactorStats",
    stats_b: "FactorStats",
    assumption: Assumption,
    m_rows: np.ndarray,
    m_cols: np.ndarray,
) -> sp.csr_array:
    """Fused ``◇_C`` over the *whole* product pattern.

    ``m_rows``/``m_cols`` enumerate the stored entries of the effective
    left factor ``M`` (including the diagonal under Assumption 1(ii));
    every one is expanded against all stored entries of ``B``.  The
    value block is a single stacked integer matmul
    ``(α | β_i | β_j)ᵀ (w3_B | −d_k | −d_l) + 1`` -- one ``|E_C|``-sized
    output allocation, no intermediate ``sp.kron`` term, no
    re-anchoring extraction.  The returned CSR has pattern equal to the
    product adjacency with explicit zeros on square-free edges,
    bit-identical to the legacy term-by-term evaluation.
    """
    n_b = stats_b.n
    shape = (stats_a.n * n_b, stats_a.n * n_b)
    idx_b = stats_b.edge_index
    m_rows = np.asarray(m_rows, dtype=np.int64)
    m_cols = np.asarray(m_cols, dtype=np.int64)
    if m_rows.size == 0 or idx_b.rows.size == 0:
        return sp.csr_array(shape, dtype=np.int64)
    alpha, beta_i, beta_j, valid = edge_coefficients(stats_a, assumption, m_rows, m_cols)
    if not valid.all():
        bad = int(np.flatnonzero(~valid)[0])
        raise ValueError(
            f"left entry ({int(m_rows[bad])}, {int(m_cols[bad])}) is not an edge of M"
        )
    L = np.stack((alpha, beta_i, beta_j))               # (3, nnz_M)
    R = np.stack((idx_b.w3, -idx_b.d_rows, -idx_b.d_cols))  # (3, nnz_B)
    vals = L.T @ R                                      # the one |E_C| value block
    vals += 1
    p = (m_rows[:, None] * n_b + idx_b.rows).ravel()
    q = (m_cols[:, None] * n_b + idx_b.cols).ravel()
    return sp.csr_array(sp.coo_array((vals.ravel(), (p, q)), shape=shape))


def stats_arrays(stats: "FactorStats", include_cached: bool = True) -> Sequence[np.ndarray]:
    """Every array a :class:`FactorStats` holds, for byte accounting.

    Includes the sparse matrices' internal arrays and -- when
    ``include_cached`` and it has been materialized -- the
    :class:`EdgeIndex` derived cache.
    """
    arrays: list[np.ndarray] = [stats.d, stats.w2, stats.s, stats.cw4]
    for mat in (stats.diamond, stats.adj):
        arrays.extend((mat.data, mat.indices, mat.indptr))
    if include_cached:
        cached = stats.__dict__.get("edge_index")
        if cached is not None:
            arrays.extend(
                (cached.keys, cached.rows, cached.cols, cached.diamond,
                 cached.w3, cached.d_rows, cached.d_cols,
                 cached.table_keys, cached.table_vals)
            )
    return arrays
