"""Seed-sensitivity of the synthetic Konect stand-in.

The Table-I reproduction leans on one calibrated Chung-Lu draw; a fair
question is whether the match to the paper's factor statistics is a
lucky seed.  This experiment regenerates the stand-in across many seeds
and reports the distribution of every Table-I quantity against the
paper's values -- the calibration is honest if the paper's numbers sit
comfortably inside the seed distribution, not just near one draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.analytics.fourcycles import global_squares
from repro.generators.konect_like import UNICODE_PAPER_STATS, konect_unicode_like
from repro.kronecker.assumptions import Assumption, make_bipartite_product
from repro.kronecker.ground_truth import global_squares_product

__all__ = ["SeedSweepResult", "unicode_seed_sweep"]


@dataclass
class SeedRow:
    seed: int
    edges: int
    factor_squares: int
    product_squares: int


@dataclass
class SeedSweepResult:
    rows: List[SeedRow] = field(default_factory=list)

    def _stats(self, values):
        arr = np.asarray(values, dtype=float)
        return arr.mean(), arr.std(), arr.min(), arr.max()

    def format(self) -> str:
        paper = UNICODE_PAPER_STATS
        edges = [r.edges for r in self.rows]
        fsq = [r.factor_squares for r in self.rows]
        psq = [r.product_squares for r in self.rows]
        lines = [
            f"unicode-like stand-in over {len(self.rows)} seeds vs paper values",
            "-" * 78,
            f"{'quantity':<20}{'paper':>14}{'mean':>16}{'std':>14}{'min':>14}{'max':>14}",
        ]
        for name, paper_val, values in [
            ("factor edges", paper["edges"], edges),
            ("factor 4-cycles", paper["squares"], fsq),
            ("product 4-cycles", 946_565_889, psq),
        ]:
            mean, std, lo, hi = self._stats(values)
            lines.append(
                f"{name:<20}{paper_val:>14,}{mean:>16,.0f}{std:>14,.0f}{lo:>14,.0f}{hi:>14,.0f}"
            )
        lines.append("-" * 78)
        in_band_edges = min(edges) <= paper["edges"] <= max(edges) or abs(
            np.mean(edges) - paper["edges"]
        ) < 3 * (np.std(edges) + 1)
        lines.append(
            f"paper's factor edge count within the seed distribution (±3σ): {in_band_edges}"
        )
        return "\n".join(lines)


def unicode_seed_sweep(n_seeds: int = 10, base_seed: int = 100) -> SeedSweepResult:
    """Regenerate the stand-in for ``n_seeds`` seeds; collect statistics.

    Product-side 4-cycle counts use the sublinear formulas, so the full
    sweep is sub-second despite each product having millions of edges.
    """
    if n_seeds <= 0:
        raise ValueError(f"n_seeds must be positive, got {n_seeds}")
    result = SeedSweepResult()
    for k in range(n_seeds):
        seed = base_seed + k
        factor = konect_unicode_like(seed=seed)
        bk = make_bipartite_product(
            factor, factor, Assumption.SELF_LOOPS_FACTOR, require_connected=False
        )
        result.rows.append(
            SeedRow(
                seed=seed,
                edges=factor.m,
                factor_squares=global_squares(factor.graph),
                product_squares=global_squares_product(bk),
            )
        )
    return result
