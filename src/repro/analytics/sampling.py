"""Approximate butterfly counting by wedge sampling.

§I: "Additionally, approximation techniques exist.  The computational
complexity makes graph generators that produce massive graphs with
ground truth 4-cycle counts attractive for validating both direct and
*approximate* computation techniques."  This module is the approximate
technique our examples validate against the generator's ground truth.

Estimator
---------
A *wedge* is a pair of distinct edges sharing a centre:
``(a; {i, j})`` with ``i, j ∈ N(a)``, ``i != j``.  Every butterfly
contains exactly four wedges (one per vertex).  For a uniformly random
wedge, let ``r = codeg(i, j) - 1`` count the centres other than ``a``
closing the pair.  Then ``Σ_wedges r = 4 B``, so

    B_hat = (W_total / M) * Σ_sample r / 4

is unbiased, where ``W_total = Σ_v C(d_v, 2)`` and ``M`` is the sample
size.  Sampling a uniform wedge = sampling a centre ``v`` with
probability proportional to ``C(d_v, 2)``, then a uniform neighbour
pair.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["approximate_butterflies", "total_wedges"]


def total_wedges(graph: Graph) -> int:
    """``Σ_v C(d_v, 2)`` -- the wedge population size."""
    d = graph.degrees().astype(np.int64)
    return int((d * (d - 1) // 2).sum())


def approximate_butterflies(graph: Graph, samples: int, seed=None) -> float:
    """Unbiased wedge-sampling estimate of the global 4-cycle count.

    Works on any loop-free graph (bipartite or not): the wedge identity
    counts 4-cycles regardless of parts.  Standard-error scales as
    ``1/sqrt(samples)`` with a variance constant governed by codegree
    skew; the examples pick sample sizes empirically against ground
    truth.
    """
    if graph.has_self_loops:
        raise ValueError("wedge sampling assumes a loop-free graph")
    samples = check_positive(samples, "samples")
    rng = as_generator(seed)
    d = graph.degrees().astype(np.int64)
    weights = (d * (d - 1) // 2).astype(np.float64)
    W_total = weights.sum()
    if W_total == 0:
        return 0.0
    probs = weights / W_total
    centres = rng.choice(graph.n, size=samples, p=probs)
    indptr, indices = graph.indptr, graph.indices
    # Neighbour-set membership oracle: sorted-row binary search.
    acc = 0.0
    for v in centres.tolist():
        row = indices[indptr[v] : indptr[v + 1]]
        i, j = rng.choice(row.size, size=2, replace=False)
        a, b = int(row[i]), int(row[j])
        row_a = indices[indptr[a] : indptr[a + 1]]
        row_b = indices[indptr[b] : indptr[b + 1]]
        codeg = np.intersect1d(row_a, row_b, assume_unique=True).size
        acc += codeg - 1  # centres other than v closing the pair
    return float(W_total / samples * acc / 4.0)
