"""What the generator can (and cannot) give you for wing validation.

Rem. 1's negative result: non-trivial products always contain 4-cycles,
so one cannot engineer products whose k-wing decomposition is trivially
known the way triangle-free regions make trusses knowable.  The
*positive* residue is still useful:

* the exact **initial butterfly support** of every edge is free
  (Thm. 5 / derived 1(ii) for 2-factor products; the multiplicative
  Def. 9 form ``Π W3 − Π d_row − Π d_col + 1`` for n-factor chains),
  and the wing number never exceeds it;
* a k-wing can only exist if at least one edge has support >= k, so
  ``max support`` upper-bounds the product's maximum wing number;
* edges with support 0 have wing number exactly 0 -- the generator can
  certify *those* without any peeling.

These bounds let a wing implementation be sanity-checked at scale
(upper bounds violated => bug) even though the exact decomposition
still requires the peel (:mod:`repro.analytics.peel` on referee-sized
products).

Every function accepts either a 2-factor
:class:`~repro.kronecker.assumptions.BipartiteKronecker` (materialized
CSR answers, the original API) or an n-factor
:class:`~repro.kronecker.multifactor.KroneckerChain`, where bounds
stream block-by-block from factor-sized tables and point queries run
through per-factor hash probes -- nothing product-sized is allocated.
"""

from __future__ import annotations

from typing import Iterator, Union

import numpy as np
import scipy.sparse as sp

from repro.kronecker.assumptions import BipartiteKronecker
from repro.kronecker.ground_truth import edge_squares_product
from repro.kronecker.kernels import build_edge_table, probe_edge_table
from repro.kronecker.multifactor import KroneckerChain

__all__ = [
    "wing_upper_bounds",
    "certified_zero_wing_edges",
    "max_wing_upper_bound",
    "chain_wings_at_edges",
]

WingSource = Union[BipartiteKronecker, KroneckerChain]


def _reject_stream_kwargs(lo, hi, block_entries) -> None:
    if lo is not None or hi is not None or block_entries is not None:
        raise TypeError(
            "row-range streaming (lo/hi/block_entries) applies to "
            "KroneckerChain sources only"
        )


def wing_upper_bounds(
    source: WingSource,
    lo: int | None = None,
    hi: int | None = None,
    block_entries: int | None = None,
) -> sp.csr_array | Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-edge upper bounds on wing numbers: the exact ◇ supports.

    For a :class:`BipartiteKronecker` this returns a CSR whose pattern
    equals the product adjacency; the value at each edge is its exact
    initial butterfly support, which dominates its wing number (peeling
    only removes support).

    For a :class:`KroneckerChain` it returns an iterator of
    ``(rows, cols, bounds)`` int64 blocks streamed over product rows
    ``[lo, hi)`` (default: the full row range) -- the same shard blocks
    :meth:`KroneckerChain.stream_rows` emits, since the chain's
    per-entry 4-cycle count *is* the Def. 9 butterfly support.
    """
    if isinstance(source, KroneckerChain):
        return source.stream_rows(
            0 if lo is None else lo,
            source.n if hi is None else hi,
            attach_ground_truth=True,
            block_entries=block_entries,
        )
    _reject_stream_kwargs(lo, hi, block_entries)
    return edge_squares_product(source)


def certified_zero_wing_edges(
    source: WingSource,
    lo: int | None = None,
    hi: int | None = None,
    block_entries: int | None = None,
) -> np.ndarray:
    """Directed entries ``(p, q)`` whose wing number is certified 0.

    Exactly the edges with ◇ = 0: no butterfly ever contains them, so
    no k-wing (k >= 1) can either.  Returned as an ``(m, 2)`` int64
    array of directed stored entries; empty products (a factor without
    edges) certify nothing and return shape ``(0, 2)``.

    Chain sources stream rows ``[lo, hi)`` block-by-block and collect
    only the zero-support entries, so memory is bounded by the block
    size plus the certified set itself.
    """
    if isinstance(source, KroneckerChain):
        lo = 0 if lo is None else lo
        hi = source.n if hi is None else hi
        found = [np.zeros((0, 2), dtype=np.int64)]
        for rows, cols, bounds in source.stream_rows(
            lo, hi, attach_ground_truth=True, block_entries=block_entries
        ):
            zero = bounds == 0
            if zero.any():
                found.append(np.column_stack((rows[zero], cols[zero])))
        return np.concatenate(found, axis=0)
    _reject_stream_kwargs(lo, hi, block_entries)
    dia = edge_squares_product(source).tocoo()
    zero = dia.data == 0
    return np.column_stack((dia.row[zero], dia.col[zero])).reshape(-1, 2).astype(np.int64)


def max_wing_upper_bound(source: WingSource) -> int:
    """Upper bound on the product's maximum wing number: max ◇
    (0 for edgeless products).  Chain sources stream the reduction."""
    if isinstance(source, KroneckerChain):
        best = 0
        for _, _, bounds in source.stream_rows(0, source.n, attach_ground_truth=True):
            if bounds.size:
                best = max(best, int(bounds.max()))
        return best
    dia = edge_squares_product(source)
    return int(dia.data.max()) if dia.nnz else 0


# ---------------------------------------------------------------------------
# Batched chain point queries
# ---------------------------------------------------------------------------


def _chain_probe_tables(chain: KroneckerChain) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Per-factor ``W3`` hash tables (``key = row·n + col``), memoized
    on the chain."""
    tables = getattr(chain, "_wing_probe_tables", None)
    if tables is None:
        tables = []
        for f in chain.factors:
            rows = np.repeat(np.arange(f.n, dtype=np.int64), np.diff(f.indptr))
            keys = rows * f.n + f.indices  # ascending: CSR with sorted indices
            tables.append(build_edge_table(keys, f.w3))
        chain._wing_probe_tables = tables  # type: ignore[attr-defined]
    return tables


def chain_wings_at_edges(
    chain: KroneckerChain,
    ps: np.ndarray,
    qs: np.ndarray,
    on_invalid: str = "raise",
) -> np.ndarray:
    """Wing upper bounds at arbitrary product entry batches ``(p, q)``.

    Evaluates the multiplicative Def. 9 support
    ``Π_t W3_t(i_t, j_t) − Π_t d_t(i_t) − Π_t d_t(j_t) + 1`` through
    the chain's mixed-radix digits with one hash probe per factor --
    bit-identical to the streamed :func:`wing_upper_bounds` blocks and,
    on 2-factor ``[M, B]`` chains, to the fused Thm. 5 kernels.

    ``on_invalid`` matches the oracle contract: ``"raise"`` names the
    first non-edge pair, ``"mask"`` reports ``-1`` there.
    """
    if on_invalid not in ("raise", "mask"):
        raise ValueError(f"on_invalid must be 'raise' or 'mask', got {on_invalid!r}")
    ps = np.atleast_1d(np.asarray(ps, dtype=np.int64))
    qs = np.atleast_1d(np.asarray(qs, dtype=np.int64))
    if ps.shape != qs.shape:
        raise ValueError(f"ps and qs must align: {ps.shape} vs {qs.shape}")
    for name, arr in (("p", ps), ("q", qs)):
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= chain.n):
            raise IndexError(
                f"{name} indices out of range for chain product of size {chain.n}"
            )
    tables = _chain_probe_tables(chain)
    valid = np.ones(ps.shape, dtype=bool)
    w3 = np.ones(ps.shape, dtype=np.int64)
    drow = np.ones(ps.shape, dtype=np.int64)
    dcol = np.ones(ps.shape, dtype=np.int64)
    rem_p, rem_q = ps, qs
    for t in range(len(chain.factors) - 1, -1, -1):
        f = chain.factors[t]
        rem_p, i_t = np.divmod(rem_p, f.n)
        rem_q, j_t = np.divmod(rem_q, f.n)
        table_keys, table_vals, shift = tables[t]
        found, w3_t = probe_edge_table(table_keys, table_vals, shift, i_t * f.n + j_t)
        valid &= found
        w3 *= w3_t
        drow *= f.d[i_t]
        dcol *= f.d[j_t]
    vals = w3
    vals -= drow
    vals -= dcol
    vals += 1
    vals *= valid  # zero the invalid slots before the sentinel write
    if on_invalid == "raise":
        if not valid.all():
            bad = int(np.flatnonzero(~valid)[0])
            raise ValueError(
                f"({int(ps[bad])}, {int(qs[bad])}) is not an edge of the chain product"
            )
        return vals
    vals[~valid] = -1
    return vals
