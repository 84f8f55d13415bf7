"""Bench ``wings``: Rem. 1 wing bounds vs the bitruss peeling engine.

Three contracts, all asserted in-bench (not just recorded):

1. **Rem. 1 holds on real output** — the peeling engine's exact wing
   numbers never exceed the oracle's ◇ support bounds, certified-zero
   edges peel to exactly 0, and the max-bound reduction dominates the
   peeled maximum.  The bench would fail on any support-formula drift,
   not just run slower.
2. **Bit identity** — batched ``wings_at_edges`` answers (the
   ``/v1/wings`` path) equal the engine's streamed bounds edge for
   edge.
3. **Complete cover** — the streamed chain bounds enumerate exactly
   ``nnz`` entries, their running max equals the closed-form
   ``max_wing_upper_bound``, and the mixed-radix digit-probe batch
   reproduces the streamed values.

Every bench records throughput into ``BENCH_wings.json``; CI re-runs
this module in quick mode and gates the regression via
``benchmarks/compare.py``.

Run standalone: ``python benchmarks/bench_wings.py``
"""

import os

import numpy as np

from repro.analytics.peel import peel_wing_numbers
from repro.generators.classic import complete_bipartite, complete_graph, star_graph
from repro.generators.scale_free import preferential_attachment
from repro.graphs.graph import Graph
from repro.kronecker import Assumption, make_bipartite_product
from repro.kronecker.multifactor import KroneckerChain
from repro.kronecker.oracle import GroundTruthOracle
from repro.kronecker.wings import (
    certified_zero_wing_edges,
    chain_wings_at_edges,
    max_wing_upper_bound,
    wing_upper_bounds,
)
from repro.obs import Span

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

# Query batches are tiled so the measured path is the engine's batch query, not
# fixture setup; peeling runs once (it is the expensive analytic the
# bounds exist to sanity-check).
QUERY_TILE = 8 if QUICK else 64
ROUNDS = 1 if QUICK else 3


def _product():
    a = preferential_attachment(10 if QUICK else 36, 2, seed=7)
    b = complete_bipartite(2, 3) if QUICK else complete_bipartite(3, 4)
    return make_bipartite_product(a, b, Assumption.NON_BIPARTITE_FACTOR)


def _chain() -> KroneckerChain:
    a = preferential_attachment(14 if QUICK else 200, 2, seed=3)
    b = complete_bipartite(2, 2).graph if QUICK else complete_bipartite(4, 4).graph
    c = star_graph(2) if QUICK else star_graph(4)
    return KroneckerChain.from_graphs([a, b, c])


def _mean_seconds(benchmark) -> float:
    stats = getattr(benchmark, "stats", None)
    return float(stats.stats.mean) if stats is not None else 0.0


def _best_seconds(benchmark) -> float:
    stats = getattr(benchmark, "stats", None)
    return float(stats.stats.min) if stats is not None else 0.0


def _edge_key(p, q):
    return (int(p), int(q)) if p <= q else (int(q), int(p))


def test_peel_vs_oracle_bounds(benchmark, record_bench):
    """Bitruss peeling throughput, with Rem. 1 asserted on the output:
    wing <= bound everywhere, equality on certified-zero edges, and the
    max reduction dominating the peeled maximum."""
    bk = _product()
    C = bk.materialize()
    result = benchmark.pedantic(
        peel_wing_numbers, args=(C.adj,), rounds=1, iterations=1
    )
    oracle = GroundTruthOracle(bk)
    u, v = C.edge_arrays()
    bounds = oracle.wings_at_edges(u, v)
    by_edge = {_edge_key(p, q): int(s) for p, q, s in zip(u, v, bounds)}
    over = [e for e, w in result.wing.items() if w > by_edge[e]]
    assert not over, f"peeled wing exceeds its Rem. 1 bound at {over[0]}"
    certified = certified_zero_wing_edges(bk.chain)
    for p, q in certified.tolist():
        assert result.wing[_edge_key(p, q)] == 0, "certified-zero edge peeled nonzero"
    assert result.max_wing <= oracle.max_wing_bound()
    assert oracle.max_wing_bound() == max_wing_upper_bound(bk.chain)

    # The dense workload certifies no zeros, so Rem. 1 equality gets its
    # own fringe product (matching right factor) where certified-zero
    # edges are guaranteed.
    fringe = make_bipartite_product(
        complete_graph(3),
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        Assumption.NON_BIPARTITE_FACTOR,
        require_connected=False,
    )
    fringe_zero = certified_zero_wing_edges(fringe.chain)
    assert fringe_zero.shape[0] > 0, "fringe product lost its certified zeros"
    fringe_wing = peel_wing_numbers(fringe.materialize().adj).wing
    for p, q in fringe_zero.tolist():
        assert fringe_wing[_edge_key(p, q)] == 0, "certified-zero edge peeled nonzero"

    seconds = _mean_seconds(benchmark)
    record_bench(
        f"peel {len(result.wing):,} edges: max wing {result.max_wing} "
        f"<= bound {oracle.max_wing_bound()}, "
        f"{fringe_zero.shape[0]:,} fringe certified-zero edges exact",
        edges=len(result.wing),
        max_wing=result.max_wing,
        max_wing_bound=oracle.max_wing_bound(),
        certified_zero_edges=int(fringe_zero.shape[0]),
        seconds=seconds,
        edges_per_s=len(result.wing) / seconds if seconds else 0.0,
    )


def test_wing_bound_query_throughput(benchmark, record_bench):
    """Batched ``wings_at_edges`` (the ``/v1/wings`` answer path) over
    tiled whole-edge-set batches, bit-identical to the engine's streamed
    bounds."""
    bk = _product()
    oracle = GroundTruthOracle(bk)
    C = bk.materialize()
    u, v = C.edge_arrays()
    ps = np.tile(u, QUERY_TILE)
    qs = np.tile(v, QUERY_TILE)
    bounds = benchmark.pedantic(
        oracle.wings_at_edges, args=(ps, qs), rounds=ROUNDS, iterations=1
    )
    by_edge = {
        (p, q): s
        for rows, cols, sup in wing_upper_bounds(bk.chain)
        for p, q, s in zip(rows.tolist(), cols.tolist(), sup.tolist())
    }
    for p, q, s in zip(u.tolist(), v.tolist(), bounds[: u.size].tolist()):
        assert by_edge[(p, q)] == s, "oracle batch diverged from the engine stream"
    seconds = _best_seconds(benchmark)
    record_bench(
        f"wing bounds {ps.size:,} queries "
        f"({ps.size / seconds / 1e6 if seconds else 0.0:.1f} M/s), "
        f"bit-identical to the engine stream over {u.size:,} edges",
        queries=int(ps.size),
        edges=int(u.size),
        seconds=seconds,
        queries_per_s=ps.size / seconds if seconds else 0.0,
    )


def test_chain_wing_stream(benchmark, record_bench):
    """Streamed chain bounds: complete nnz cover, running max equal to
    the closed-form reduction, digit-probe batch reproducing the
    streamed values."""
    chain = _chain()

    def run():
        entries = 0
        best = 0
        first = None
        for p, q, b in wing_upper_bounds(chain):
            entries += int(p.size)
            if b.size:
                best = max(best, int(b.max()))
            if first is None:
                first = (p.copy(), q.copy(), b.copy())
        return entries, best, first

    entries, best, first = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert entries == chain.nnz, "streamed bounds did not cover every entry"
    assert best == max_wing_upper_bound(chain)
    p, q, b = first
    assert np.array_equal(chain_wings_at_edges(chain, p, q), b), (
        "digit-probe batch diverged from the streamed bounds"
    )
    seconds = _best_seconds(benchmark)
    record_bench(
        f"stream {entries:,} chain wing bounds "
        f"({entries / seconds / 1e6 if seconds else 0.0:.1f} M/s), "
        f"max bound {best}",
        entries=entries,
        max_wing_bound=best,
        seconds=seconds,
        entries_per_s=entries / seconds if seconds else 0.0,
    )


def wing_table() -> str:
    """Peel-vs-bound summary per workload (standalone mode only)."""
    lines = [
        "wing bounds vs bitruss peel",
        "-" * 56,
        f"{'workload':>12}{'edges':>10}{'max wing':>10}{'max bound':>10}{'peel s':>10}",
    ]
    bk = _product()
    C = bk.materialize()
    with Span() as t:
        result = peel_wing_numbers(C.adj)
    oracle = GroundTruthOracle(bk)
    lines.append(
        f"{'product':>12}{len(result.wing):>10,}{result.max_wing:>10}"
        f"{oracle.max_wing_bound():>10}{t.elapsed:>10.2f}"
    )
    chain = _chain()
    with Span() as t:
        best = max_wing_upper_bound(chain)
    lines.append(
        f"{'chain':>12}{chain.nnz // 2:>10,}{'-':>10}{best:>10}{t.elapsed:>10.2f}"
    )
    lines.append("-" * 56)
    return "\n".join(lines)


if __name__ == "__main__":
    print(wing_table())
