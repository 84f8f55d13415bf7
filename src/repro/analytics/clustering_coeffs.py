"""Bipartite clustering coefficients.

Triangles don't exist in bipartite graphs, so clustering must be
re-based on 4-cycles.  The paper works with the **edge** notion
(Def. 10, the "metamorphosis coefficient" of Aksoy-Kolda-Pinar [27])
because its denominator is intrinsic to the edge::

    Γ(i, j) = ◇_ij / ((d_i - 1)(d_j - 1)),   d_i, d_j >= 2

-- the fraction of possible neighbour pairings across the edge that
actually close into squares.  We also provide the Robins-Alexander
global coefficient (4 * #squares / #paths-of-length-3) and the
degree-binned average of Γ, the curve the bipartite BTER paper tunes
against and our generator-comparison bench plots.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.analytics.fourcycles import edge_squares_matrix, global_squares
from repro.graphs.bipartite import BipartiteGraph

__all__ = [
    "edge_clustering_coefficients",
    "robins_alexander_coefficient",
    "degree_binned_edge_clustering",
]


def edge_clustering_coefficients(bg: BipartiteGraph):
    """Per-edge metamorphosis coefficients (Def. 10).

    Returns ``(u, w, gamma)`` parallel arrays over edges whose both
    endpoints have degree >= 2 (the coefficient is undefined
    otherwise), in global vertex ids with ``u ∈ U``.
    """
    X = bg.biadjacency()
    du = np.asarray(X.sum(axis=1)).ravel().astype(np.int64)
    dw = np.asarray(X.sum(axis=0)).ravel().astype(np.int64)
    # The U x W block of Def. 9's ◇ keeps the biadjacency pattern,
    # explicit zeros included, so square-free edges report Γ = 0.
    B = edge_squares_matrix(bg.graph)[bg.U][:, bg.W].tocoo()
    denom = (du[B.row] - 1) * (dw[B.col] - 1)
    keep = denom > 0
    gamma = B.data[keep] / denom[keep]
    return bg.U[B.row[keep]], bg.W[B.col[keep]], gamma


def robins_alexander_coefficient(bg: BipartiteGraph) -> float:
    """Global bipartite clustering: ``4 * #squares / #L3-paths``.

    ``#L3`` (paths on 4 distinct vertices) is counted over centre
    edges: ``Σ_{(u,w) ∈ E} (d_u - 1)(d_w - 1)`` -- in a bipartite graph
    the two endpoints of such a path lie in different parts and are
    automatically distinct.  Returns 0 for path-free graphs.
    """
    X = bg.biadjacency().tocoo()
    du = np.asarray(sp.csr_array(X).sum(axis=1)).ravel().astype(np.int64)
    dw = np.asarray(sp.csr_array(X).sum(axis=0)).ravel().astype(np.int64)
    l3 = int(((du[X.row] - 1) * (dw[X.col] - 1)).sum())
    if l3 == 0:
        return 0.0
    return 4.0 * global_squares(bg.graph) / l3


def degree_binned_edge_clustering(bg: BipartiteGraph, log_base: float = 2.0):
    """Average Γ per logarithmic degree bin.

    Edges are binned by ``floor(log_b(d_u * d_w))`` (the product degree
    is the natural edge-size scale).  Returns ``(bin_lows, means,
    counts)`` arrays; empty bins are omitted.  This is the curve the
    bipartite-BTER comparison bench reports for the paper's remark that
    stochastic generators struggle to match local 4-cycle structure.
    """
    if log_base <= 1.0:
        raise ValueError(f"log_base must exceed 1, got {log_base}")
    u, w, gamma = edge_clustering_coefficients(bg)
    if gamma.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64)
    d = bg.graph.degrees().astype(np.int64)
    sizes = d[u] * d[w]
    bins = np.floor(np.log(sizes) / np.log(log_base)).astype(np.int64)
    uniq = np.unique(bins)
    means = np.array([gamma[bins == b].mean() for b in uniq])
    counts = np.array([(bins == b).sum() for b in uniq], dtype=np.int64)
    lows = (log_base ** uniq.astype(float)).astype(np.int64)
    return lows, means, counts
