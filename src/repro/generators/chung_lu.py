"""Bipartite Chung-Lu generator with power-law expected degrees.

Chung-Lu is the standard "given expected degrees" random graph: edge
``(u, w)`` appears independently with probability
``min(theta_u * theta_w / S, 1)`` where ``S = sum(theta_U) =
sum(theta_W)``.  The bipartite version drives the synthetic Konect
stand-in (:mod:`repro.generators.konect_like`) and the BTER excess-degree
stage (:mod:`repro.generators.bter`).

Implementation note: at factor scale (hundreds-thousands of vertices per
part) the dense ``nu x nw`` Bernoulli matrix fits easily, so we draw it
in one vectorised pass -- per the HPC guides, a single whole-array
operation beats clever per-row loops until memory forces the issue.  A
row-blocked path keeps memory bounded for larger parts.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["bipartite_chung_lu", "powerlaw_weights"]

# Row-block size for the blocked sampling path: ~8M doubles per block.
_BLOCK_ROWS_BUDGET = 8_000_000


def powerlaw_weights(n: int, exponent: float = 2.5, w_min: float = 1.0, w_max: float | None = None, seed=None) -> np.ndarray:
    """Draw ``n`` weights from a (truncated) Pareto tail.

    ``P(W > x) ~ x^{1 - exponent}`` for ``x >= w_min``; the inverse-CDF
    sampling gives the heavy tail the paper's design criterion asks for.
    ``w_max`` (default ``n``) truncates so a single hub cannot swallow
    the whole expected-edge budget.
    """
    n = check_positive(n, "n")
    if exponent <= 1.0:
        raise ValueError(f"exponent must exceed 1, got {exponent}")
    rng = as_generator(seed)
    if w_max is None:
        w_max = float(n)
    u = rng.random(n)
    a = exponent - 1.0
    # Inverse CDF of the truncated Pareto on [w_min, w_max].
    lo, hi = w_min ** (-a), w_max ** (-a)
    return (lo - u * (lo - hi)) ** (-1.0 / a)


def bipartite_chung_lu(weights_u, weights_w, seed=None) -> BipartiteGraph:
    """Sample a bipartite Chung-Lu graph from expected-degree weights.

    The two weight vectors are rescaled to a common sum ``S`` (their
    geometric-mean total), after which vertex ``u``'s expected degree is
    ``~ theta_u`` (exact when no probability saturates at 1).
    """
    theta_u = np.asarray(weights_u, dtype=np.float64)
    theta_w = np.asarray(weights_w, dtype=np.float64)
    if theta_u.ndim != 1 or theta_w.ndim != 1:
        raise ValueError("weights must be 1-D")
    if np.any(theta_u < 0) or np.any(theta_w < 0):
        raise ValueError("weights must be non-negative")
    su, sw = theta_u.sum(), theta_w.sum()
    if su <= 0 or sw <= 0:
        raise ValueError("weights must have positive sum")
    # Rescale both sides to the common total S = sqrt(su * sw); this
    # preserves each side's degree *profile* while making the two
    # expected volumes consistent.
    S = float(np.sqrt(su * sw))
    theta_u = theta_u * (S / su)
    theta_w = theta_w * (S / sw)
    rng = as_generator(seed)
    nu, nw = theta_u.size, theta_w.size
    block = max(1, _BLOCK_ROWS_BUDGET // max(nw, 1))
    rows_parts, cols_parts = [], []
    for start in range(0, nu, block):
        stop = min(start + block, nu)
        probs = np.minimum(np.outer(theta_u[start:stop], theta_w) / S, 1.0)
        hits = rng.random(probs.shape) < probs
        r, c = np.nonzero(hits)
        rows_parts.append(r + start)
        cols_parts.append(c)
    rows = np.concatenate(rows_parts) if rows_parts else np.empty(0, dtype=np.int64)
    cols = np.concatenate(cols_parts) if cols_parts else np.empty(0, dtype=np.int64)
    # int64 indices, as every graph built from edge arrays stores them
    return BipartiteGraph._from_block_entries(nu, nw, rows, cols, wide=True)
