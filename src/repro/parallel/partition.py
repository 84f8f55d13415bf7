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
<repro.kronecker.multifactor.KroneckerChain.work_prefix>`), and so has
its inverse: a digit descent over the per-factor cumulative-degree
tables finds the row that holds a given entry
(:meth:`KroneckerChain.work_row
<repro.kronecker.multifactor.KroneckerChain.work_row>`).  A greedy
bin-pack over contiguous ranges therefore reads each of the
``n_shards − 1`` cut points, where ``W`` crosses an equal work
quantile, off the factor tables in ``O(k log n_f)`` exact integer
steps, without searching the product row space.  ``rows`` (equal row
ranges) stays as the naive baseline the imbalance contrast is
measured against.  Ranges stay contiguous, so
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


def _plan(
    chain: KroneckerChain, strategy: str, cuts: list[int], prefix: list[int]
) -> PartitionPlan:
    """The plan of row ``cuts`` (``0 … n``) whose work prefixes are
    ``prefix``: shard work is the prefix difference, empty ranges drop."""
    shards = [
        ((a, b), wb - wa)
        for a, b, wa, wb in zip(cuts, cuts[1:], prefix, prefix[1:])
        if b > a
    ]
    return PartitionPlan(
        strategy=strategy,
        total=chain.n,
        bounds=tuple(bounds for bounds, _ in shards),
        work=tuple(work for _, work in shards),
    )


def plan_partition(
    chain: KroneckerChain, n_shards: int, strategy: str = "degree"
) -> PartitionPlan:
    """Plan ``n_shards`` contiguous row ranges of ``chain`` under ``strategy``.

    * ``degree`` -- work-balanced row ranges.  Cut ``j`` is the smallest
      row ``p`` at or after cut ``j − 1`` with ``W(p) ≥ T_j = ⌊j ·
      nnz / n_shards⌋``, or ``p − 1`` when that prefix is closer to
      ``T_j``.  One digit descent
      (:meth:`~repro.kronecker.multifactor.KroneckerChain.work_row`)
      finds the row holding entry ``T_j − 1`` together with its prefix
      and work, so each cut costs ``O(k log n_f)`` and the shard work
      comes from the prefixes at the cuts.
    * ``rows`` -- equal product-row ranges, cut at the exact integers
      ``⌊j · n / n_shards⌋``: the naive baseline, skewed by up to the
      degree spread on power-law factors.

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
        cuts = [(chain.n * j) // n_shards for j in range(n_shards + 1)]
        return _plan(chain, "rows", cuts, [chain.work_prefix(c) for c in cuts])
    total = chain.nnz
    cuts, prefix = [0], [0]
    for j in range(1, n_shards):
        target = (total * j) // n_shards
        cut, reached = cuts[-1], prefix[-1]
        if reached < target:
            # the row holding entry target - 1 is the last with W < target
            row, before, work = chain.work_row(target - 1)
            cut, reached = row + 1, before + work
            if target - before < reached - target:  # row's start is closer
                cut, reached = row, before
        cuts.append(cut)
        prefix.append(reached)
    cuts.append(chain.n)
    prefix.append(total)
    return _plan(chain, "degree", cuts, prefix)


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
