"""Uniform sampling of product vertices/edges with attached ground truth.

§I closes with: a GraphBLAS implementation "could be used to sample
4-cycle counts at edges and vertices without materializing the full
Kronecker products to validate algorithms on massive graphs."  That is
precisely this module:

* :func:`sample_vertices` -- uniform product vertices + exact
  ``s_C(p)``;
* :func:`sample_edges` -- uniform *stored entries* of ``C`` + exact
  ``◇_C(p, q)``.  Uniformity over entries is exact by construction:
  every stored entry of ``C`` is an (M-entry, B-entry) pair, so a
  uniform pair is a uniform entry (all blocks have equal size
  ``nnz(B)``).

Everything runs on factor-sized state via the
:class:`~repro.kronecker.oracle.GroundTruthOracle`; no part of ``C`` is
ever formed.
"""

from __future__ import annotations

import numpy as np

from repro.kronecker.assumptions import BipartiteKronecker
from repro.kronecker.oracle import GroundTruthOracle
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["sample_vertices", "sample_edges"]


def sample_vertices(bk: BipartiteKronecker, k: int, seed=None, oracle: GroundTruthOracle | None = None):
    """Sample ``k`` uniform product vertices with their ground truth.

    Returns ``(p, degrees, squares)`` parallel arrays; vertices are
    drawn with replacement (the massive-scale regime where collisions
    are negligible and replacement keeps the estimator clean).
    """
    k = check_positive(k, "k")
    rng = as_generator(seed)
    oracle = oracle or GroundTruthOracle(bk)
    p = rng.integers(0, bk.n, size=k, dtype=np.int64)
    return p, oracle.degrees(p), oracle.squares_at_vertices(p)


def sample_edges(bk: BipartiteKronecker, k: int, seed=None, oracle: GroundTruthOracle | None = None):
    """Sample ``k`` uniform stored entries of ``C`` with ground truth.

    Returns ``(p, q, squares)`` parallel arrays.  Each directed stored
    entry of ``C`` is equally likely; for undirected-edge sampling note
    every edge appears as two entries, so the induced edge distribution
    is also uniform.
    """
    k = check_positive(k, "k")
    rng = as_generator(seed)
    oracle = oracle or GroundTruthOracle(bk)
    M, B = bk.M, bk.B.graph
    mi = rng.integers(0, M.nnz, size=k)
    bi = rng.integers(0, B.nnz, size=k)
    p = M.entry_rows()[mi] * B.n + B.entry_rows()[bi]
    q = M.indices[mi].astype(np.int64) * B.n + B.indices[bi].astype(np.int64)
    return p, q, oracle.squares_at_edges(p, q)
