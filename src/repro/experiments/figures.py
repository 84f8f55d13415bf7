"""Figure reproductions (Figs. 1-5 of the paper).

Figures 1-4 are *verification* artifacts: small examples and algebraic
identities.  Fig. 5 is the paper's one data figure, the degree-vs-
4-cycle scatter of the unicode factor and its Kronecker square.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.analytics.fourcycles import closed_walks4, global_squares, vertex_squares_matrix
from repro.generators.examples import Fig1Case, fig1_trio
from repro.graphs.connectivity import num_components
from repro.graphs.graph import Graph
from repro.graphs.bipartite import is_bipartite
from repro.kronecker.assumptions import BipartiteKronecker
from repro.kronecker.ground_truth import vertex_squares_product
from repro.kronecker.multifactor import KroneckerChain
from repro.refcheck import brute

__all__ = [
    "fig1_connectivity_table",
    "fig2_closed_walk_identity",
    "fig3_example_squares",
    "fig4_edge_walk_identity",
    "fig5_degree_vs_squares",
]


# ---------------------------------------------------------------------------
# Fig. 1 -- connectivity / bipartiteness of the three product regimes
# ---------------------------------------------------------------------------


@dataclass
class Fig1Row:
    name: str
    description: str
    predicted_bipartite: bool
    actual_bipartite: bool
    predicted_connected: bool
    actual_connected: bool
    components: int

    @property
    def consistent(self) -> bool:
        return (
            self.predicted_bipartite == self.actual_bipartite
            and self.predicted_connected == self.actual_connected
        )


@dataclass
class Fig1Result:
    rows: List[Fig1Row]

    def format(self) -> str:
        lines = ["Fig 1: bipartite Kronecker product regimes", "-" * 78]
        lines.append(
            f"{'case':<14}{'bipartite (pred/act)':<24}{'connected (pred/act)':<24}{'#comp':<6}"
        )
        for r in self.rows:
            lines.append(
                f"{r.name:<14}"
                f"{str(r.predicted_bipartite) + ' / ' + str(r.actual_bipartite):<24}"
                f"{str(r.predicted_connected) + ' / ' + str(r.actual_connected):<24}"
                f"{r.components:<6}"
            )
        lines.append("-" * 78)
        ok = all(r.consistent for r in self.rows)
        lines.append(f"all predictions consistent with BFS ground truth: {ok}")
        return "\n".join(lines)


def fig1_connectivity_table(cases: List[Fig1Case] | None = None) -> Fig1Result:
    """Reproduce Fig. 1: build each example product, measure, compare."""
    rows = []
    for case in cases or fig1_trio():
        C = Graph(KroneckerChain.from_graphs([case.A, case.B]).materialize())
        rows.append(
            Fig1Row(
                name=case.name,
                description=case.description,
                predicted_bipartite=case.expect_bipartite,
                actual_bipartite=is_bipartite(C),
                predicted_connected=case.expect_connected,
                actual_connected=num_components(C) == 1,
                components=num_components(C),
            )
        )
    return Fig1Result(rows)


# ---------------------------------------------------------------------------
# Fig. 2 -- W⁴(i,i) = 2 s_i + d_i² + Σ_{j∈N_i} d_j − d_i
# ---------------------------------------------------------------------------


@dataclass
class IdentityResult:
    identity: str
    n_checked: int
    max_abs_error: int

    def format(self) -> str:
        return (
            f"{self.identity}\n"
            f"  checked on {self.n_checked} quantities, max |error| = {self.max_abs_error}"
        )


def fig2_closed_walk_identity(graph: Graph) -> IdentityResult:
    """Verify Fig. 2's closed-walk decomposition on ``graph``.

    Left side: ``diag(A⁴)`` computed directly.  Right side:
    ``2s + d² + w² − d`` with ``s`` from the brute-force referee
    (:func:`repro.refcheck.brute.squares_at_vertices`), which shares no
    algebra with the identity it checks.
    """
    lhs = closed_walks4(graph)
    d = graph.degrees().astype(np.int64)
    w2 = np.asarray(graph.adj @ d).ravel().astype(np.int64)
    s = brute.squares_at_vertices(graph)
    rhs = 2 * s + d * d + w2 - d
    return IdentityResult(
        identity="Fig 2: W4(i,i) = 2 s_i + d_i^2 + sum_{j in N_i} d_j - d_i",
        n_checked=graph.n,
        max_abs_error=int(np.abs(lhs - rhs).max(initial=0)),
    )


# ---------------------------------------------------------------------------
# Fig. 3 -- 4-cycles appearing in the Fig. 1 example products (Rem. 1)
# ---------------------------------------------------------------------------


@dataclass
class Fig3Row:
    name: str
    factor_squares_a: int
    factor_squares_b: int
    product_squares_formula: int
    product_squares_brute: int


@dataclass
class Fig3Result:
    rows: List[Fig3Row]

    def format(self) -> str:
        lines = ["Fig 3: 4-cycles in the example products (factors are square-free!)", "-" * 78]
        lines.append(f"{'case':<14}{'sq(A)':<8}{'sq(B)':<8}{'sq(C) formula':<16}{'sq(C) brute':<12}")
        for r in self.rows:
            lines.append(
                f"{r.name:<14}{r.factor_squares_a:<8}{r.factor_squares_b:<8}"
                f"{r.product_squares_formula:<16}{r.product_squares_brute:<12}"
            )
        lines.append("-" * 78)
        lines.append("Rem. 1: products of square-free factors still contain 4-cycles.")
        return "\n".join(lines)


def fig3_example_squares() -> Fig3Result:
    """Count the squares Fig. 3 highlights in each Fig. 1 product."""
    rows = []
    for case in fig1_trio():
        C = Graph(KroneckerChain.from_graphs([case.A, case.B]).materialize())
        a_loopfree = case.A.without_self_loops()
        rows.append(
            Fig3Row(
                name=case.name,
                factor_squares_a=global_squares(a_loopfree),
                factor_squares_b=global_squares(case.B),
                product_squares_formula=global_squares(C),
                product_squares_brute=brute.global_squares(C),
            )
        )
    return Fig3Result(rows)


# ---------------------------------------------------------------------------
# Fig. 4 -- W³(i,j) = ◇_ij + d_i + d_j − 1 on edges
# ---------------------------------------------------------------------------


def fig4_edge_walk_identity(graph: Graph) -> IdentityResult:
    """Verify Fig. 4's edge walk decomposition on every edge.

    Left side: ``A³`` on the edges.  Right side: ``◇ + d_i + d_j − 1``
    with ``◇`` from the brute-force referee
    (:func:`repro.refcheck.brute.squares_at_edges`), not from Def. 9's
    matrix form, which is this identity solved for ``◇``.
    """
    import scipy.sparse as sp

    A = graph.adj
    A2 = sp.csr_array(A @ A)
    w3 = sp.csr_array((A2 @ A).multiply(A)).tocoo()
    diamond = brute.squares_at_edges(graph)
    d = graph.degrees().astype(np.int64)
    dia_at = np.fromiter(
        (diamond[(i, j) if i <= j else (j, i)] for i, j in zip(w3.row.tolist(), w3.col.tolist())),
        dtype=np.int64,
        count=w3.nnz,
    )
    rhs = dia_at + d[w3.row] + d[w3.col] - 1
    err = int(np.abs(w3.data - rhs).max(initial=0))
    return IdentityResult(
        identity="Fig 4: W3(i,j) = diamond_ij + d_i + d_j - 1 on edges",
        n_checked=int(w3.nnz),
        max_abs_error=err,
    )


# ---------------------------------------------------------------------------
# Fig. 5 -- degree vs vertex 4-cycle count (log-log scatter series)
# ---------------------------------------------------------------------------


@dataclass
class Fig5Series:
    label: str
    degree: np.ndarray
    squares: np.ndarray

    def binned(self, n_bins: int = 20):
        """Log-binned (degree, median-squares) summary for text output."""
        pos = self.degree > 0
        deg = self.degree[pos].astype(float)
        sq = self.squares[pos].astype(float)
        if deg.size == 0:
            return np.empty(0), np.empty(0)
        edges = np.logspace(0, np.log10(deg.max() + 1), n_bins + 1)
        mids, meds = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (deg >= lo) & (deg < hi)
            if mask.any():
                mids.append(np.sqrt(lo * hi))
                meds.append(np.median(sq[mask]))
        return np.asarray(mids), np.asarray(meds)


@dataclass
class Fig5Result:
    factor: Fig5Series
    product: Fig5Series

    def format(self, n_bins: int = 12) -> str:
        lines = ["Fig 5: vertex degree vs 4-cycle count (log-log; zeros plotted as 0)"]
        for series in (self.factor, self.product):
            lines.append(f"\n  series: {series.label}  ({series.degree.size} vertices)")
            lines.append(f"  {'degree(bin mid)':>16}  {'median 4-cycles':>16}")
            mids, meds = series.binned(n_bins)
            for x, y in zip(mids, meds):
                lines.append(f"  {x:>16.1f}  {y:>16.1f}")
        return "\n".join(lines)


def fig5_degree_vs_squares(bk: BipartiteKronecker, factor_label: str = "factor A") -> Fig5Result:
    """Reproduce Fig. 5 for any Assumption-1(ii) style product.

    Factor series: degrees and square counts of the (loop-free) factor
    ``A``.  Product series: ground-truth degrees ``d_M ⊗ d_B`` and
    Thm.-3/4 vertex squares -- no product materialization.
    """
    d_fac = bk.A.degrees().astype(np.int64)
    s_fac = vertex_squares_matrix(bk.A)
    d_prod = bk.chain.degrees(np.arange(bk.n))
    s_prod = vertex_squares_product(bk)
    return Fig5Result(
        factor=Fig5Series(factor_label, d_fac, s_fac),
        product=Fig5Series("Kronecker product C", d_prod, s_prod),
    )
