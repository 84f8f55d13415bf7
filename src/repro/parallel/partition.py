"""Deterministic work partitioning for parallel chain generation.

Shards are contiguous ranges of the **product row space**
(:class:`PartitionPlan`), which is what deep multi-factor chains and
row-sliceable manifests need.  Naive equal row ranges skew badly on
power-law factors -- product row ``p = (i_1, …, i_k)`` holds
``Π_t d_t(i_t)`` entries, so a hub digit concentrates work.  The
``degree`` strategy (the one generation uses) balances *estimated
product work from factor statistics alone*: the exact work prefix
``W(p) = Σ_{p'<p} Π d_t`` has a mixed-radix closed form
(:meth:`KroneckerChain.work_prefix
<repro.kronecker.multifactor.KroneckerChain.work_prefix>`), so a
greedy bin-pack over contiguous ranges reduces to binary-searching the
``n_shards − 1`` cut points where ``W`` crosses equal work quantiles.
``rows`` (equal row ranges) stays as the naive baseline the
imbalance contrast is measured against.  Ranges stay contiguous, so
manifests stay sliceable and both strategies yield the same
shard-union entry set (asserted by the property fleet).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.kronecker.multifactor import KroneckerChain
from repro.parallel.edgeio import DEFAULT_BLOCK_ENTRIES

__all__ = [
    "PARTITION_STRATEGIES",
    "PartitionPlan",
    "plan_partition",
    "shard_of_rows",
]

#: ``degree`` balances exact per-row work; ``rows`` is the naive
#: equal-range baseline.
PARTITION_STRATEGIES = ("rows", "degree")


@dataclass(frozen=True)
class PartitionPlan:
    """A contiguous partition of a chain's product row space.

    ``work`` is each shard's directed product entry count, computed
    exactly from factor statistics alone, which is what lets benches
    assert a max/mean imbalance bound without generating anything.
    """

    strategy: str
    total: int                        #: product rows partitioned
    bounds: tuple[tuple[int, int], ...]
    work: tuple[int, ...]             #: per-shard product entries

    @property
    def n_shards(self) -> int:
        return len(self.bounds)

    @property
    def total_work(self) -> int:
        return sum(self.work)

    def imbalance(self) -> float:
        """Max/mean shard work -- 1.0 is a perfect balance."""
        if not self.work or self.total_work == 0:
            return 1.0
        mean = self.total_work / len(self.work)
        return max(self.work) / mean


def _row_bounds_to_plan(
    chain: KroneckerChain, strategy: str, cuts: list[int]
) -> PartitionPlan:
    pairs = [
        (a, b) for a, b in zip(cuts[:-1], cuts[1:]) if b > a
    ]
    work = tuple(chain.row_range_work(a, b) for a, b in pairs)
    return PartitionPlan(
        strategy=strategy,
        total=chain.n,
        bounds=tuple(pairs),
        work=work,
    )


def plan_partition(
    chain: KroneckerChain, n_shards: int, strategy: str = "degree"
) -> PartitionPlan:
    """Plan ``n_shards`` contiguous row ranges of ``chain`` under ``strategy``.

    * ``degree`` -- work-balanced row ranges: cut points are binary
      searches of the exact Kronecker work prefix, so each shard gets
      as close to ``total/n_shards`` entries as contiguity allows.
    * ``rows`` -- equal product-row ranges: the naive baseline, skewed
      by up to the degree spread on power-law factors.

    Empty ranges are dropped, so plans may hold fewer than ``n_shards``
    shards on tiny inputs.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    if strategy not in PARTITION_STRATEGIES:
        raise ValueError(
            f"unknown partition strategy {strategy!r} (choose from {PARTITION_STRATEGIES})"
        )
    if strategy == "rows":
        cuts = [int(c) for c in np.linspace(0, chain.n, n_shards + 1).astype(np.int64)]
        return _row_bounds_to_plan(chain, "rows", cuts)
    # degree: binary-search the work prefix for each equal-work quantile.
    total = chain.work_prefix(chain.n)
    cuts = [0]
    for j in range(1, n_shards):
        target = (total * j) // n_shards
        lo, hi = cuts[-1], chain.n
        # smallest p with W(p) >= target
        while lo < hi:
            mid = (lo + hi) // 2
            if chain.work_prefix(mid) >= target:
                hi = mid
            else:
                lo = mid + 1
        # lo and lo-1 straddle the quantile; keep the closer cut.
        if lo > cuts[-1] and target - chain.work_prefix(lo - 1) < chain.work_prefix(lo) - target:
            lo -= 1
        cuts.append(max(lo, cuts[-1]))
    cuts.append(chain.n)
    return _row_bounds_to_plan(chain, "degree", cuts)


def shard_of_rows(
    chain: KroneckerChain,
    start: int,
    stop: int,
    attach_ground_truth: bool = False,
    block_entries: int = DEFAULT_BLOCK_ENTRIES,
) -> Iterator[tuple[np.ndarray, ...]]:
    """Stream product rows ``[start, stop)`` of ``chain`` as entry blocks.

    Yields ``(p, q)`` or ``(p, q, squares)`` blocks of about
    ``block_entries`` entries (:meth:`KroneckerChain.stream_rows
    <repro.kronecker.multifactor.KroneckerChain.stream_rows>`), so a
    shard writer holds one block, never the whole range.  The
    concatenation of the blocks is a pure function of ``(chain, start,
    stop)``, so shard bytes are identical across worker scheduling,
    resume boundaries, and block sizes.
    """
    return chain.stream_rows(
        start, stop, attach_ground_truth=attach_ground_truth, block_entries=block_entries
    )
