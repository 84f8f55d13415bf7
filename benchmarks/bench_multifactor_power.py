"""Bench ``power``: Graph500-style iterated products with ground truth.

§V plans implementing "this style of generator" -- iterated Kronecker
powers -- with ground truth computed during generation.  This bench
grows ``A ⊗ A ⊗ …`` and times the closed-form global 4-cycle count
(the chain engine, :class:`repro.kronecker.multifactor.KroneckerChain`)
against direct counting on the power materialized by ``sp.kron``, the
referee here; agreement is asserted at every depth that is still
countable directly.

Run standalone: ``python benchmarks/bench_multifactor_power.py``
"""

from dataclasses import dataclass
from typing import List

import scipy.sparse as sp

from repro.analytics import global_squares
from repro.generators import scale_free_nonbipartite_factor
from repro.graphs import Graph
from repro.kronecker import KroneckerChain
from repro.obs import Span


@dataclass
class PowerRow:
    k: int
    n: int
    m: int
    squares: int
    t_formula: float
    t_direct: float | None


@dataclass
class PowerResult:
    rows: List[PowerRow]

    def format(self) -> str:
        lines = [
            "Iterated Kronecker powers A^(x)k with closed-form ground truth",
            "-" * 84,
            f"{'k':>3}{'n':>10}{'|E|':>12}{'4-cycles':>18}{'t_formula':>12}{'t_direct':>12}",
        ]
        for r in self.rows:
            direct = f"{r.t_direct:.4f}s" if r.t_direct is not None else "skipped"
            lines.append(
                f"{r.k:>3}{r.n:>10,}{r.m:>12,}{r.squares:>18,}{r.t_formula:>11.4f}s{direct:>12}"
            )
        lines.append("-" * 84)
        return "\n".join(lines)


def _sp_kron_fold(A: Graph, k: int) -> Graph:
    """``A ⊗ A ⊗ … ⊗ A`` (k factors) folded with ``sp.kron``."""
    adj = A.adj
    for _ in range(k - 1):
        adj = sp.kron(adj, A.adj, format="csr")
    return Graph(adj)


def run_powers(max_k: int = 3, direct_limit_edges: int = 500_000, seed: int = 5) -> PowerResult:
    A = scale_free_nonbipartite_factor(9, 2, seed=seed)
    rows = []
    for k in range(1, max_k + 1):
        factors = [A] * k
        with Span() as t_formula:
            squares = KroneckerChain.from_graphs(factors).global_squares()
        C = _sp_kron_fold(A, k)
        t_direct = None
        if C.m <= direct_limit_edges:
            with Span() as timer:
                direct = global_squares(C)
            t_direct = timer.elapsed
            if direct != squares:  # pragma: no cover - formulas are proven
                raise AssertionError(f"k={k}: formula {squares} != direct {direct}")
        rows.append(
            PowerRow(k=k, n=C.n, m=C.m, squares=squares, t_formula=t_formula.elapsed, t_direct=t_direct)
        )
    return PowerResult(rows)


def test_multifactor_powers(benchmark):
    result = benchmark.pedantic(run_powers, rounds=1, iterations=1)
    print()
    print(result.format())
    # 4-cycle counts explode super-exponentially with depth.
    assert result.rows[-1].squares > result.rows[0].squares ** 2


if __name__ == "__main__":
    print(run_powers().format())
