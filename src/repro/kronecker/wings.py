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

Every function takes a :class:`~repro.kronecker.multifactor.KroneckerChain`
(an Assumption-1 product's is ``bk.chain``): bounds stream
block-by-block from factor-sized tables and point queries run through
the chain's per-factor hash probes -- nothing product-sized is
allocated.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.kronecker.multifactor import KroneckerChain
from repro.kronecker.oracle import edge_answers

__all__ = [
    "wing_upper_bounds",
    "certified_zero_wing_edges",
    "max_wing_upper_bound",
    "chain_wings_at_edges",
]


def wing_upper_bounds(
    chain: KroneckerChain,
    lo: int | None = None,
    hi: int | None = None,
    block_entries: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-edge upper bounds on wing numbers: the exact ◇ supports.

    An iterator of ``(rows, cols, bounds)`` int64 blocks streamed over
    product rows ``[lo, hi)`` (default: the full row range) -- the same
    shard blocks :meth:`KroneckerChain.stream_rows` emits, since the
    chain's per-entry 4-cycle count *is* the Def. 9 butterfly support,
    which dominates the wing number (peeling only removes support).
    """
    return chain.stream_rows(
        0 if lo is None else lo,
        chain.n if hi is None else hi,
        attach_ground_truth=True,
        block_entries=block_entries,
    )


def certified_zero_wing_edges(
    chain: KroneckerChain,
    lo: int | None = None,
    hi: int | None = None,
    block_entries: int | None = None,
) -> np.ndarray:
    """Directed entries ``(p, q)`` whose wing number is certified 0.

    Exactly the edges with ◇ = 0: no butterfly ever contains them, so
    no k-wing (k >= 1) can either.  Returned as an ``(m, 2)`` int64
    array of directed stored entries; empty products (a factor without
    edges) certify nothing and return shape ``(0, 2)``.  Rows
    ``[lo, hi)`` stream block-by-block and only the zero-support
    entries are kept, so memory is bounded by the block size plus the
    certified set itself.
    """
    found = [np.zeros((0, 2), dtype=np.int64)]
    for rows, cols, bounds in wing_upper_bounds(chain, lo, hi, block_entries):
        zero = bounds == 0
        if zero.any():
            found.append(np.column_stack((rows[zero], cols[zero])))
    return np.concatenate(found, axis=0)


def max_wing_upper_bound(chain: KroneckerChain) -> int:
    """Upper bound on the product's maximum wing number: max ◇
    (0 for edgeless products), a streamed reduction."""
    best = 0
    for _, _, bounds in wing_upper_bounds(chain):
        if bounds.size:
            best = max(best, int(bounds.max()))
    return best


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
