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
through the chain's per-factor hash probes -- nothing product-sized is
allocated.
"""

from __future__ import annotations

from typing import Iterator, Union

import numpy as np
import scipy.sparse as sp

from repro.kronecker.assumptions import BipartiteKronecker
from repro.kronecker.ground_truth import edge_squares_product
from repro.kronecker.multifactor import KroneckerChain
from repro.kronecker.oracle import edge_answers

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


def chain_wings_at_edges(
    chain: KroneckerChain,
    ps: np.ndarray,
    qs: np.ndarray,
    on_invalid: str = "raise",
) -> np.ndarray:
    """Wing upper bounds at arbitrary product entry batches ``(p, q)``.

    The Def. 9 support of :meth:`KroneckerChain.edge_squares` --
    bit-identical to the streamed :func:`wing_upper_bounds` blocks --
    under the oracle's ``on_invalid`` contract
    (:func:`~repro.kronecker.oracle.edge_answers`): ``"raise"`` names
    the first non-edge pair, ``"mask"`` reports ``-1`` there.
    """
    ps = np.atleast_1d(np.asarray(ps, dtype=np.int64))
    qs = np.atleast_1d(np.asarray(qs, dtype=np.int64))
    return edge_answers(chain, ps, qs, on_invalid)
