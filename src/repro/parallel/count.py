"""Parallel direct butterfly counting by row-block partial sums.

The validation side of the paper's workflow at scale: a cluster
recounts butterflies on a generated graph and compares with the
generator's ground truth.  The standard decomposition is by *rows of
the smaller side's codegree product*::

    B = ½ Σ_{u} Σ_{u' != u} C((X Xᵀ)_{u u'}, 2)

where the outer sum splits into disjoint row blocks.  Each worker
computes ``X[block] @ Xᵀ`` (scipy, compiled) and its choose-2 partial
sum; the parent adds the partials (integer arithmetic, disjoint
blocks).  The serial referee it must equal exactly is Def. 8's matrix
identity, :func:`repro.analytics.fourcycles.global_squares` on
``bg.graph``.
"""

from __future__ import annotations

import os
import time
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.graphs.bipartite import BipartiteGraph
from repro.obs import MetricsRegistry, get_metrics, get_tracer
from repro.parallel.faults import FaultInjector, RetryPolicy, map_with_retry

__all__ = ["parallel_global_butterflies"]


def _block_partial(X_csr: sp.csr_array, start: int, stop: int) -> int:
    """Worker: Σ over rows [start, stop) of Σ_{u'} C(codeg, 2)."""
    block = sp.csr_array(X_csr[start:stop, :])
    C = sp.csr_array(block @ X_csr.T)
    coo = C.tocoo()
    # Remove self-codegree entries (global row index == column index).
    keep = (coo.row + start) != coo.col
    w = coo.data[keep].astype(np.int64)
    return int((w * (w - 1) // 2).sum())


def _block_partial_instrumented(
    X_csr: sp.csr_array,
    index: int,
    start: int,
    stop: int,
    attempt: int = 0,
    injector: Optional[FaultInjector] = None,
):
    """Worker wrapper: partial sum plus a local metrics snapshot.

    Worker processes cannot touch the parent's registry, so each builds
    a throwaway local one and ships ``registry.snapshot()`` home with
    the payload; the parent merges (counters add, histograms pool).
    """
    if injector is not None:
        injector.maybe_fail(index, attempt)
    reg = MetricsRegistry()
    t0 = time.perf_counter()
    partial = _block_partial(X_csr, start, stop)
    reg.histogram("parallel.count.worker_seconds").observe(time.perf_counter() - t0)
    reg.counter("parallel.count.blocks_total").inc()
    reg.counter("parallel.count.rows_total").inc(stop - start)
    return partial, reg.snapshot()


def parallel_global_butterflies(
    bg: BipartiteGraph,
    n_blocks: int = 4,
    n_workers: int | None = None,
    *,
    retry: Optional[RetryPolicy] = None,
    fault_injector: Optional[FaultInjector] = None,
) -> int:
    """Exact global butterfly count by parallel row-block reduction.

    Splits the smaller side's biadjacency rows into ``n_blocks``
    contiguous blocks; each worker forms its block's codegree rows and
    partial choose-2 sum.  Each butterfly is counted by exactly two
    ordered same-side pairs, hence the final halving.  Failed or killed
    workers are retried with backoff (see :mod:`repro.parallel.faults`),
    so the validation side of a long run survives transient deaths too.
    """
    if n_blocks <= 0:
        raise ValueError(f"n_blocks must be positive, got {n_blocks}")
    X = bg.biadjacency()
    if X.shape[0] > X.shape[1]:
        X = sp.csr_array(X.T)
    n_rows = X.shape[0]
    bounds = np.linspace(0, n_rows, min(n_blocks, n_rows) + 1).astype(np.int64)
    blocks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if n_workers is None:
        n_workers = min(len(blocks), os.cpu_count() or 1)
    metrics = get_metrics()
    with get_tracer().span(
        "parallel.global_butterflies", n_blocks=len(blocks), n_workers=n_workers
    ):
        tasks = [(k, (X, k, a, b)) for k, (a, b) in enumerate(blocks)]
        results = map_with_retry(
            _block_partial_instrumented,
            tasks,
            n_workers=n_workers,
            policy=retry,
            injector=fault_injector,
            metric_prefix="parallel.count",
        )
        total = 0
        for partial, snap in results.values():
            total += partial
            metrics.merge_snapshot(snap)
    count, rem = divmod(total, 2)
    assert rem == 0, "ordered same-side pair sums are even"
    return count
