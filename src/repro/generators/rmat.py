"""R-MAT: the stochastic Kronecker baseline (Chakrabarti et al. [23]).

The paper contrasts non-stochastic Kronecker generation with the R-MAT
family used by Graph500 / GraphChallenge (§I): R-MAT is fast and
heavy-tailed but gives *no exact ground truth* -- statistics are known
only in expectation and must be recomputed after generation.  The
benchmark harness uses these generators to demonstrate exactly that
trade-off (``bench_groundtruth_vs_direct``), and the bipartite variant
reproduces the paper's remark that bipartite R-MAT under-produces
higher-order structure between medium/low-degree vertices.

Implementation: fully vectorised — all edges descend the recursion
simultaneously, one quadrant draw per level (scale draws of size
``n_edges`` instead of ``n_edges * scale`` Python steps).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.graph import Graph
from repro.utils.rng import as_generator
from repro.utils.validation import check_nonnegative, check_positive, check_probability

__all__ = ["rmat", "bipartite_rmat", "rmat_edge_arrays"]


def _check_quadrants(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    a, b, c, d = (check_probability(x, n) for x, n in ((a, "a"), (b, "b"), (c, "c"), (d, "d")))
    total = a + b + c + d
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"quadrant probabilities must sum to 1, got {total}")
    return a, b, c, d


def rmat_edge_arrays(
    scale_rows: int,
    scale_cols: int,
    n_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    d: float = 0.05,
    seed=None,
):
    """Draw ``n_edges`` directed R-MAT edges on a ``2^sr x 2^sc`` grid.

    Returns ``(rows, cols)`` int64 arrays *with duplicates* -- the raw
    stream a Graph500-style generator emits.  Rectangular grids
    (``scale_rows != scale_cols``) implement the bipartite variant: the
    recursion splits whichever dimensions still have bits left.
    """
    scale_rows = check_nonnegative(scale_rows, "scale_rows")
    scale_cols = check_nonnegative(scale_cols, "scale_cols")
    n_edges = check_nonnegative(n_edges, "n_edges")
    a, b, c, d = _check_quadrants(a, b, c, d)
    rng = as_generator(seed)
    rows = np.zeros(n_edges, dtype=np.int64)
    cols = np.zeros(n_edges, dtype=np.int64)
    levels = max(scale_rows, scale_cols)
    for level in range(levels):
        split_row = level < scale_rows
        split_col = level < scale_cols
        u = rng.random(n_edges)
        if split_row and split_col:
            right = ((u >= a) & (u < a + b)) | (u >= a + b + c)
            lower = u >= a + b
        elif split_row:
            # Only row bits remain: collapse quadrants column-wise.
            lower = u >= (a + b)
            right = np.zeros(n_edges, dtype=bool)
        else:
            right = u >= (a + c)
            lower = np.zeros(n_edges, dtype=bool)
        if split_row:
            rows = (rows << 1) | lower.astype(np.int64)
        if split_col:
            cols = (cols << 1) | right.astype(np.int64)
    return rows, cols


def rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    d: float = 0.05,
    seed=None,
    remove_self_loops: bool = True,
) -> Graph:
    """Graph500-style R-MAT: ``2^scale`` vertices, symmetrized, deduped.

    ``edge_factor`` is the Graph500 convention: ``n_edges = edge_factor
    * 2^scale`` raw draws before dedup.
    """
    scale = check_nonnegative(scale, "scale")
    edge_factor = check_positive(edge_factor, "edge_factor")
    n = 1 << scale
    rows, cols = rmat_edge_arrays(scale, scale, edge_factor * n, a, b, c, d, seed)
    if remove_self_loops:
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
    return Graph.from_edge_arrays(n, rows, cols)


def bipartite_rmat(
    scale_u: int,
    scale_w: int,
    n_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    d: float = 0.05,
    seed=None,
) -> BipartiteGraph:
    """Bipartite R-MAT on parts of size ``2^scale_u`` and ``2^scale_w``.

    The recursion runs on the rectangular biadjacency grid, so edges
    only ever join ``U`` to ``W`` -- bipartite by construction (the
    paper's "bipartite version of R-MAT exists [23]").
    """
    scale_u = check_nonnegative(scale_u, "scale_u")
    scale_w = check_nonnegative(scale_w, "scale_w")
    rows, cols = rmat_edge_arrays(scale_u, scale_w, n_edges, a, b, c, d, seed)
    nu, nw = 1 << scale_u, 1 << scale_w
    return BipartiteGraph._from_block_entries(nu, nw, rows, cols)
