"""Bench ``gen``: streaming edge generation vs materialization.

The generator use case (§I, §V future work): emit the product's edges
block-by-block in factor-sized memory, optionally with per-edge ground
truth attached during generation.  Times both against scipy's
materializing ``kron`` at unicode scale (~8.7M directed entries),
times a deep chain's set-up on small factors, where fixed per-factor
costs dominate, times the degree plan's digit descent against the
product-row bisection it replaced, and times a factor's walk tables
(``w2``, ``cw4``, ``w3``) built by the blocked numpy pass against the
scipy SpGEMM form it replaced (:mod:`repro.refcheck.spgemm`), with the
``tracemalloc`` peak of each, and the direct 4-cycle counter built on
them: ``vertex_squares_matrix`` and ``edge_squares_matrix`` against the
SpGEMM referee's ``FactorStats``, and ``global_squares`` (the only count
most callers read) against scipy's ``A²`` alone.

Results go into ``BENCH_generation.json`` via ``record_bench``; CI's
smoke job validates that record under ``REPRO_BENCH_QUICK=1``.

Run standalone: ``python benchmarks/bench_generation.py``
"""

import os
import statistics
import tracemalloc

import numpy as np

from repro.analytics.fourcycles import edge_squares_matrix, global_squares, vertex_squares_matrix
from repro.experiments import generation_throughput
from repro.generators import complete_bipartite, preferential_attachment
from repro.kronecker import KroneckerChain, stream_edges
from repro.kronecker.multifactor import ChainFactor, _walk_tables
from repro.obs import Span
from repro.parallel.partition import plan_partition
from repro.refcheck.spgemm import FactorStats, walk_tables

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
#: Set-up runs per :func:`test_chain_setup` reading (it records their median).
SETUP_RUNS = 200
#: Timed builds per walk-table form and factor (the row keeps the best).
WALK_TABLE_RUNS = 3
#: Timed plans per planner and chain in :func:`test_plan_partition` (median).
PLAN_RUNS = 20 if QUICK else 200
MIB = 1 << 20


def test_generation_throughput(benchmark, unicode_product, record_bench):
    result = benchmark.pedantic(
        generation_throughput, args=(unicode_product,), rounds=1, iterations=1
    )
    record_bench(
        f"streamed {result.directed_entries:,} directed entries in "
        f"{result.t_stream:.4f} s (materialize: {result.t_materialize:.4f} s)",
        directed_entries=result.directed_entries,
        stream_seconds=result.t_stream,
        materialize_seconds=result.t_materialize,
    )
    assert result.directed_entries == unicode_product.chain.nnz


def test_stream_with_ground_truth_attached(benchmark, unicode_product, record_bench):
    def run():
        entries = 0
        with Span() as t:
            for p, _q, _dia in stream_edges(unicode_product.chain, attach_ground_truth=True):
                entries += p.size
        return entries, t.elapsed

    entries, seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    record_bench(
        f"streamed all {entries:,} directed entries with exact per-edge 4-cycle "
        f"counts attached in {seconds:.4f} s",
        entries_with_ground_truth=entries,
        gt_stream_seconds=seconds,
        gt_entries_per_s=entries / seconds,
    )
    assert entries == unicode_product.chain.nnz


def _median_seconds(fn, runs: int) -> float:
    """Median wall time of ``runs`` calls of ``fn``."""
    times = []
    for _ in range(runs):
        with Span() as t:
            fn()
        times.append(t.elapsed)
    return statistics.median(times)


def test_chain_setup(benchmark, record_bench):
    """A chain's set-up as ``repro shards`` and the end-to-end gen-chain
    workload pay it: four ``preferential_attachment(16, 2)`` factors,
    :meth:`KroneckerChain.from_graphs` and the 8-shard degree plan."""

    def build():
        factors = [preferential_attachment(16, 2, seed=11 + t) for t in range(4)]
        return plan_partition(KroneckerChain.from_graphs(factors), 8, "degree")

    seconds = benchmark.pedantic(
        _median_seconds, args=(build, SETUP_RUNS), rounds=1, iterations=1
    )
    record_bench(
        f"set up a 4-factor chain of 16-vertex factors and its degree plan in "
        f"{seconds * 1e3:.2f} ms (median of {SETUP_RUNS})",
        setup_seconds=seconds,
    )
    assert seconds > 0


def _bisection_plan(chain: KroneckerChain, n_shards: int) -> tuple[tuple, tuple]:
    """``(bounds, work)`` of the degree plan by bisecting the product row
    space with :meth:`KroneckerChain.work_prefix`, as it was planned
    before the digit descent: the referee of :func:`test_plan_partition`."""
    total = chain.work_prefix(chain.n)
    cuts = [0]
    for j in range(1, n_shards):
        target = (total * j) // n_shards
        lo, hi = cuts[-1], chain.n
        while lo < hi:  # smallest p with W(p) >= target
            mid = (lo + hi) // 2
            if chain.work_prefix(mid) >= target:
                hi = mid
            else:
                lo = mid + 1
        if lo > cuts[-1] and target - chain.work_prefix(lo - 1) < chain.work_prefix(lo) - target:
            lo -= 1
        cuts.append(lo)
    cuts.append(chain.n)
    pairs = [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]
    return tuple(pairs), tuple(chain.row_range_work(a, b) for a, b in pairs)


def test_plan_partition(record_bench):
    """The degree plan alone: the e2e gen-chain chain (four PA(16, 2)
    factors, seed 0) at 8 shards, and a depth-8 PA(16, 2) chain
    (n = 16⁸ ≈ 4.3·10⁹) at 256 shards, each timed for the digit descent
    and for the row bisection it replaced, which also referees the plan."""
    factors = [preferential_attachment(16, 2, seed=11 + t) for t in range(8)]
    cases = {
        "gen_chain": (KroneckerChain.from_graphs(factors[:4]), 8),
        "depth8": (KroneckerChain.from_graphs(factors), 256),
    }
    rows = {}
    for name, (chain, n_shards) in cases.items():
        plan = plan_partition(chain, n_shards, "degree")
        rows[name] = {
            "n": chain.n,
            "n_shards": n_shards,
            "plan_seconds": _median_seconds(lambda: plan_partition(chain, n_shards), PLAN_RUNS),
            "bisect_seconds": _median_seconds(
                lambda: _bisection_plan(chain, n_shards), max(PLAN_RUNS // 10, 3)
            ),
            "matches": (plan.bounds, plan.work) == _bisection_plan(chain, n_shards),
        }
    gen, deep = rows["gen_chain"], rows["depth8"]
    record_bench(
        f"degree plan by digit descent: gen-chain (8 shards) {gen['plan_seconds'] * 1e6:.0f} µs "
        f"vs {gen['bisect_seconds'] * 1e6:.0f} µs bisecting, depth-8 (256 shards) "
        f"{deep['plan_seconds'] * 1e3:.2f} ms vs {deep['bisect_seconds'] * 1e3:.2f} ms",
        chains=rows,
        plan_seconds=gen["plan_seconds"],
        bisect_seconds=gen["bisect_seconds"],
        speedup=gen["bisect_seconds"] / gen["plan_seconds"],
        deep_plan_seconds=deep["plan_seconds"],
        deep_bisect_seconds=deep["bisect_seconds"],
        plan_matches_referee=int(all(row["matches"] for row in rows.values())),
    )
    assert all(row["matches"] for row in rows.values())


def _direct_counter(graph):
    """``(s, ◇)`` as the analytics counter's callers get them: each call
    builds its own walk tables."""
    return vertex_squares_matrix(graph), edge_squares_matrix(graph)


def _referee_counter(graph):
    stats = FactorStats.from_graph(graph)
    return stats.s, stats.diamond


def _a2_global_squares(graph) -> int:
    """The global count from the SpGEMM ``A²`` alone (Def. 8 summed), the
    form global and vertex counts took before the numpy walk tables."""
    w2, cw4, _ = walk_tables(graph.n, graph.indptr, graph.indices, edges=False)
    d = graph.degrees()
    return int((cw4 - d * d - w2 + d).sum()) // 8


def _same_counts(got, want) -> bool:
    """Equal vertex counts, and equal ◇ matrices array by array, dtypes
    and explicit zeros included."""
    (s, dia), (ref_s, ref_dia) = got, want
    arrays = [(s, ref_s)] + [
        (getattr(dia, a), getattr(ref_dia, a)) for a in ("indptr", "indices", "data")
    ]
    return all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in arrays)


def _best_seconds_and_peak(build, arg):
    """``(result, best seconds of WALK_TABLE_RUNS, tracemalloc peak in
    MiB of one more build)``; the timed builds run untraced."""
    build(arg)  # warm-up: imports and first-touch allocations
    seconds = []
    for _ in range(WALK_TABLE_RUNS):
        with Span() as t:
            result = build(arg)
        seconds.append(t.elapsed)
    tracemalloc.start()
    try:
        build(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, min(seconds), peak / MIB


def test_walk_tables(unicode_like, record_bench):
    """One factor's walk tables, numpy against the scipy form, on the
    unicode stand-in, a sparse preferential-attachment factor and a
    dense biclique (which the pass multiplies as dense matrices);
    and the direct counter's ``s`` and ``◇`` on the same graphs against
    the SpGEMM referee's, and its global count against ``A²`` alone."""
    pa_n = 2_000 if QUICK else 20_000
    graphs = {
        "unicode": unicode_like.graph,
        "pa": preferential_attachment(pa_n, 3, seed=0),
        "biclique": complete_bipartite(71, 71).graph,
    }
    factors = {}
    for name, graph in graphs.items():
        factor = ChainFactor.from_graph(graph)
        new, numpy_s, numpy_mib = _best_seconds_and_peak(_walk_tables, factor)
        old, scipy_s, scipy_mib = _best_seconds_and_peak(
            lambda f: walk_tables(f.n, f.indptr, f.indices), factor
        )
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(new, old)), name
        counts, counter_s, counter_mib = _best_seconds_and_peak(_direct_counter, graph)
        ref, referee_s, referee_mib = _best_seconds_and_peak(_referee_counter, graph)
        total, global_s, _ = _best_seconds_and_peak(global_squares, graph)
        a2_total, a2_s, _ = _best_seconds_and_peak(_a2_global_squares, graph)
        factors[name] = {
            "n": factor.n,
            "nnz": factor.nnz,
            "wedges": int(new[0].sum()),
            "numpy_seconds": numpy_s,
            "scipy_seconds": scipy_s,
            "numpy_peak_mib": numpy_mib,
            "scipy_peak_mib": scipy_mib,
            "counter_seconds": counter_s,
            "referee_seconds": referee_s,
            "counter_peak_mib": counter_mib,
            "referee_peak_mib": referee_mib,
            "global_seconds": global_s,
            "a2_global_seconds": a2_s,
            "counter_matches": _same_counts(counts, ref) and total == a2_total,
        }
    pa = factors["pa"]
    record_bench(
        "walk tables, numpy vs scipy: "
        + ", ".join(
            f"{name} {f['numpy_seconds'] * 1e3:.1f} vs {f['scipy_seconds'] * 1e3:.1f} ms"
            for name, f in factors.items()
        )
        + f"; pa({pa_n},3) traced peak {pa['numpy_peak_mib']:.1f} vs {pa['scipy_peak_mib']:.1f} MiB"
        + "; direct counter vs SpGEMM referee: "
        + ", ".join(
            f"{name} {f['counter_seconds'] * 1e3:.1f} vs {f['referee_seconds'] * 1e3:.1f} ms"
            for name, f in factors.items()
        )
        + "; global count vs SpGEMM A²: "
        + ", ".join(
            f"{name} {f['global_seconds'] * 1e3:.1f} vs {f['a2_global_seconds'] * 1e3:.1f} ms"
            for name, f in factors.items()
        ),
        factors=factors,
        pa_numpy_peak_mib=pa["numpy_peak_mib"],
        pa_scipy_peak_mib=pa["scipy_peak_mib"],
        max_numpy_peak_mib=max(f["numpy_peak_mib"] for f in factors.values()),
        counter_matches_referee=int(all(f["counter_matches"] for f in factors.values())),
    )
    assert all(f["counter_matches"] for f in factors.values())


if __name__ == "__main__":
    from repro.generators import konect_unicode_like
    from repro.kronecker import Assumption, make_bipartite_product

    A = konect_unicode_like()
    bk = make_bipartite_product(A, A, Assumption.SELF_LOOPS_FACTOR, require_connected=False)
    print(generation_throughput(bk).format())
