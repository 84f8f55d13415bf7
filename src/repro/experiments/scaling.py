"""Scaling-law and cost-model experiments (Thm. 6, Cors. 1-2, §I/§IV).

Not figures in the paper, but the claims its conclusion leans on:
clustering coefficients and community densities are *controllable*
("bounded and controllable ... relatively dense structures in the
factors yield relatively dense structures in the product"), and ground
truth is computable in linear/sublinear time versus superlinear direct
counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.analytics.fourcycles import global_squares
from repro.generators.scale_free import (
    scale_free_bipartite_factor,
    scale_free_nonbipartite_factor,
)
from repro.kronecker.assumptions import Assumption, BipartiteKronecker, make_bipartite_product
from repro.kronecker.clustering import thm6_lower_bound
from repro.kronecker.community import (
    BipartiteCommunity,
    community_counts,
    community_densities,
    cor1_internal_density_bound,
    cor2_external_density_bound,
    product_community,
    thm7_product_counts,
)
from repro.kronecker.ground_truth import global_squares_product
from repro.kronecker.streaming import stream_edges
from repro.obs import Span

__all__ = [
    "thm6_tightness",
    "community_bounds_sweep",
    "groundtruth_vs_direct",
    "generation_throughput",
]


# ---------------------------------------------------------------------------
# Thm. 6 tightness
# ---------------------------------------------------------------------------


@dataclass
class Thm6Result:
    n_edges: int
    violations: int
    min_gamma_c: float
    median_ratio: float
    max_ratio: float

    def format(self) -> str:
        return (
            "Thm 6: edge clustering scaling law  Γ_C ≥ ψ Γ_A Γ_B\n"
            f"  product edges checked : {self.n_edges}\n"
            f"  bound violations      : {self.violations}   (theorem requires 0)\n"
            f"  min Γ_C               : {self.min_gamma_c:.4f}\n"
            f"  bound/Γ_C  median     : {self.median_ratio:.4f}\n"
            f"  bound/Γ_C  max        : {self.max_ratio:.4f}  (≤ 1 = bound holds; "
            "small = bound is loose, as the paper predicts)"
        )


def thm6_tightness(bk: BipartiteKronecker) -> Thm6Result:
    """Evaluate the Thm. 6 bound on every applicable product edge."""
    res = thm6_lower_bound(bk)
    ratio = res["ratio"]
    finite = ratio[np.isfinite(ratio)]
    return Thm6Result(
        n_edges=int(ratio.size),
        violations=int((finite > 1.0 + 1e-12).sum()),
        min_gamma_c=float(res["gamma_c"].min(initial=np.inf)),
        median_ratio=float(np.median(finite)) if finite.size else float("nan"),
        max_ratio=float(finite.max()) if finite.size else float("nan"),
    )


# ---------------------------------------------------------------------------
# Cors. 1-2 community bounds
# ---------------------------------------------------------------------------


@dataclass
class CommunityRow:
    label: str
    thm7_m_in: int
    measured_m_in: int
    thm7_m_out: int
    measured_m_out: int
    rho_in_product: float
    cor1_bound: float
    rho_out_product: float
    cor2_bound: float

    @property
    def thm7_exact(self) -> bool:
        return self.thm7_m_in == self.measured_m_in and self.thm7_m_out == self.measured_m_out

    @property
    def bounds_hold(self) -> bool:
        return (
            self.rho_in_product >= self.cor1_bound - 1e-12
            and self.rho_out_product <= self.cor2_bound + 1e-12
        )


@dataclass
class CommunityResult:
    rows: List[CommunityRow] = field(default_factory=list)

    def format(self) -> str:
        lines = ["Thm 7 / Cors 1-2: community preservation under (A+I) (x) B", "-" * 96]
        lines.append(
            f"{'community':<18}{'m_in (thm7/meas)':<20}{'m_out (thm7/meas)':<20}"
            f"{'ρ_in ≥ bound':<20}{'ρ_out ≤ bound':<18}"
        )
        for r in self.rows:
            lines.append(
                f"{r.label:<18}"
                f"{f'{r.thm7_m_in}/{r.measured_m_in}':<20}"
                f"{f'{r.thm7_m_out}/{r.measured_m_out}':<20}"
                f"{f'{r.rho_in_product:.4f} ≥ {r.cor1_bound:.4f}':<20}"
                f"{f'{r.rho_out_product:.4f} ≤ {r.cor2_bound:.4f}':<18}"
            )
        lines.append("-" * 96)
        lines.append(
            f"Thm 7 exact on all rows: {all(r.thm7_exact for r in self.rows)}; "
            f"bounds hold on all rows: {all(r.bounds_hold for r in self.rows)}"
        )
        return "\n".join(lines)


def community_bounds_sweep(
    bk: BipartiteKronecker,
    communities_a: List[BipartiteCommunity],
    communities_b: List[BipartiteCommunity],
) -> CommunityResult:
    """Cross every ``S_A`` with every ``S_B``: check Thm. 7 exactly and
    Cors. 1-2 as inequalities, measuring on the materialized product."""
    result = CommunityResult()
    for ia, ca in enumerate(communities_a):
        for ib, cb in enumerate(communities_b):
            sc = product_community(bk, ca, cb)
            m_in_meas, m_out_meas = community_counts(sc)
            m_in_pred, m_out_pred = thm7_product_counts(ca, cb)
            rho_in, rho_out = community_densities(sc)
            result.rows.append(
                CommunityRow(
                    label=f"S_A[{ia}] x S_B[{ib}]",
                    thm7_m_in=m_in_pred,
                    measured_m_in=m_in_meas,
                    thm7_m_out=m_out_pred,
                    measured_m_out=m_out_meas,
                    rho_in_product=rho_in,
                    cor1_bound=cor1_internal_density_bound(ca, cb),
                    rho_out_product=rho_out,
                    cor2_bound=cor2_external_density_bound(ca, cb),
                )
            )
    return result


# ---------------------------------------------------------------------------
# §I / §IV cost model: ground truth vs direct counting
# ---------------------------------------------------------------------------


@dataclass
class CostRow:
    n_product: int
    m_product: int
    squares: int
    t_ground_truth: float
    t_direct: float

    @property
    def speedup(self) -> float:
        return self.t_direct / self.t_ground_truth if self.t_ground_truth > 0 else float("inf")


@dataclass
class CostResult:
    rows: List[CostRow] = field(default_factory=list)

    def format(self) -> str:
        lines = [
            "Cost model: sublinear ground truth vs direct butterfly counting",
            "-" * 86,
            f"{'n_C':>10}{'|E_C|':>12}{'4-cycles':>16}{'t_formula (s)':>15}"
            f"{'t_direct (s)':>14}{'speedup':>10}",
        ]
        for r in self.rows:
            lines.append(
                f"{r.n_product:>10,}{r.m_product:>12,}{r.squares:>16,}"
                f"{r.t_ground_truth:>15.5f}{r.t_direct:>14.5f}{r.speedup:>10.1f}"
            )
        lines.append("-" * 86)
        lines.append("expected shape: speedup grows with |E_C| (formula cost is factor-sized).")
        return "\n".join(lines)


def groundtruth_vs_direct(sizes: List[int] | None = None, seed: int = 7) -> CostResult:
    """Sweep product sizes; time global-square ground truth vs direct.

    For each target factor size, builds a connected non-bipartite
    scale-free ``A`` and bipartite scale-free ``B``, forms
    ``C = A ⊗ B``, and measures (a) the sublinear formula and (b)
    direct counting on the materialized product (Def. 8's matrix
    identity, :func:`~repro.analytics.fourcycles.global_squares`).  Both paths
    must agree exactly -- the rows assert it.
    """
    sizes = sizes or [8, 16, 32, 64]
    result = CostResult()
    for k in sizes:
        A = scale_free_nonbipartite_factor(k, 2, seed=seed)
        B = scale_free_bipartite_factor(k, k, 2, seed=seed + 1)
        bk = make_bipartite_product(A, B, Assumption.NON_BIPARTITE_FACTOR)
        with Span() as t_formula:
            gt = global_squares_product(bk)
        C = bk.materialize_bipartite()
        with Span() as t_direct:
            direct = global_squares(C.graph)
        if gt != direct:  # pragma: no cover - correctness guard
            raise AssertionError(f"ground truth {gt} != direct {direct} at size {k}")
        result.rows.append(
            CostRow(
                n_product=bk.n,
                m_product=bk.m,
                squares=gt,
                t_ground_truth=t_formula.elapsed,
                t_direct=t_direct.elapsed,
            )
        )
    return result


# ---------------------------------------------------------------------------
# Generation throughput
# ---------------------------------------------------------------------------


@dataclass
class GenerationResult:
    n_product: int
    directed_entries: int
    t_stream: float
    t_materialize: float
    edges_per_second_stream: float

    def format(self) -> str:
        return (
            "Generation: streaming vs materializing the product\n"
            f"  n_C                : {self.n_product:,}\n"
            f"  directed entries   : {self.directed_entries:,}\n"
            f"  stream time        : {self.t_stream:.4f} s "
            f"({self.edges_per_second_stream:,.0f} entries/s)\n"
            f"  materialize time   : {self.t_materialize:.4f} s"
        )


def generation_throughput(bk: BipartiteKronecker) -> GenerationResult:
    """Measure edge-stream generation against scipy materialization."""
    with Span() as t_stream:
        entries = 0
        for p, _q in stream_edges(bk.chain):
            entries += p.size
    with Span() as t_mat:
        bk.materialize()
    return GenerationResult(
        n_product=bk.n,
        directed_entries=entries,
        t_stream=t_stream.elapsed,
        t_materialize=t_mat.elapsed,
        edges_per_second_stream=entries / t_stream.elapsed if t_stream.elapsed else float("inf"),
    )
