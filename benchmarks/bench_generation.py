"""Bench ``gen``: streaming edge generation vs materialization.

The generator use case (§I, §V future work): emit the product's edges
block-by-block in factor-sized memory, optionally with per-edge ground
truth attached during generation.  Times both against scipy's
materializing ``kron`` at unicode scale (~8.7M directed entries),
times a deep chain's set-up on small factors, where fixed per-factor
costs dominate, and times a factor's walk tables (``w2``, ``cw4``,
``w3``) built by the blocked numpy pass against the scipy SpGEMM form
it replaced, with the ``tracemalloc`` peak of each.

Results go into ``BENCH_generation.json`` via ``record_bench``; CI's
smoke job validates that record under ``REPRO_BENCH_QUICK=1``.

Run standalone: ``python benchmarks/bench_generation.py``
"""

import os
import statistics
import tracemalloc

import numpy as np

from repro.experiments import generation_throughput
from repro.generators import complete_bipartite, preferential_attachment
from repro.kronecker import KroneckerChain, stream_edges
from repro.kronecker.multifactor import ChainFactor, _walk_tables
from repro.obs import Span
from repro.parallel.partition import plan_partition

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
#: Set-up runs per :func:`test_chain_setup` reading (it records their median).
SETUP_RUNS = 200
#: Timed builds per walk-table form and factor (the row keeps the best).
WALK_TABLE_RUNS = 3
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
    assert result.directed_entries == unicode_product.implicit.nnz


def test_stream_with_ground_truth_attached(benchmark, unicode_product, record_bench):
    def run():
        entries = 0
        with Span() as t:
            for p, _q, _dia in stream_edges(unicode_product, attach_ground_truth=True):
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
    assert entries == unicode_product.implicit.nnz


def test_chain_setup(benchmark, record_bench):
    """A chain's set-up as ``repro shards`` and the end-to-end gen-chain
    workload pay it: four ``preferential_attachment(16, 2)`` factors,
    :meth:`KroneckerChain.from_graphs` and the 8-shard degree plan."""

    def build():
        factors = [preferential_attachment(16, 2, seed=11 + t) for t in range(4)]
        return plan_partition(KroneckerChain.from_graphs(factors), 8, "degree")

    def run():
        times = []
        for _ in range(SETUP_RUNS):
            with Span() as t:
                build()
            times.append(t.elapsed)
        return statistics.median(times)

    seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    record_bench(
        f"set up a 4-factor chain of 16-vertex factors and its degree plan in "
        f"{seconds * 1e3:.2f} ms (median of {SETUP_RUNS})",
        setup_seconds=seconds,
    )
    assert seconds > 0


def _scipy_walk_tables(factor: ChainFactor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scipy SpGEMM form the walk tables were built with before numpy."""
    import scipy.sparse as sp

    ones = np.ones(factor.nnz, dtype=np.int64)
    X = sp.csr_array((ones, factor.indices, factor.indptr), shape=(factor.n, factor.n))
    X2 = X @ X
    w2 = np.asarray(X2.sum(axis=1)).ravel().astype(np.int64)
    cw4 = np.asarray(X2.multiply(X2).sum(axis=1)).ravel().astype(np.int64)
    w3 = (X2 @ X)[factor.entry_rows(), factor.indices] if factor.nnz else np.zeros(0)
    return w2, cw4, np.asarray(w3).ravel().astype(np.int64)


def _best_seconds_and_peak(build, factor):
    """``(tables, best seconds of WALK_TABLE_RUNS, tracemalloc peak in
    MiB of one more build)``; the timed builds run untraced."""
    build(factor)  # warm-up: imports and first-touch allocations
    seconds = []
    for _ in range(WALK_TABLE_RUNS):
        with Span() as t:
            tables = build(factor)
        seconds.append(t.elapsed)
    tracemalloc.start()
    try:
        build(factor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return tables, min(seconds), peak / MIB


def test_walk_tables(unicode_like, record_bench):
    """One factor's walk tables, numpy against the scipy form, on the
    unicode stand-in, a sparse preferential-attachment factor and a
    dense biclique (where the wedge pass does more work than SpGEMM)."""
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
        old, scipy_s, scipy_mib = _best_seconds_and_peak(_scipy_walk_tables, factor)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(new, old)), name
        factors[name] = {
            "n": factor.n,
            "nnz": factor.nnz,
            "wedges": int(new[0].sum()),
            "numpy_seconds": numpy_s,
            "scipy_seconds": scipy_s,
            "numpy_peak_mib": numpy_mib,
            "scipy_peak_mib": scipy_mib,
        }
    pa = factors["pa"]
    record_bench(
        "walk tables, numpy vs scipy: "
        + ", ".join(
            f"{name} {f['numpy_seconds'] * 1e3:.1f} vs {f['scipy_seconds'] * 1e3:.1f} ms"
            for name, f in factors.items()
        )
        + f"; pa({pa_n},3) traced peak {pa['numpy_peak_mib']:.1f} vs {pa['scipy_peak_mib']:.1f} MiB",
        factors=factors,
        pa_numpy_peak_mib=pa["numpy_peak_mib"],
        pa_scipy_peak_mib=pa["scipy_peak_mib"],
        max_numpy_peak_mib=max(f["numpy_peak_mib"] for f in factors.values()),
    )


if __name__ == "__main__":
    from repro.generators import konect_unicode_like
    from repro.kronecker import Assumption, make_bipartite_product

    A = konect_unicode_like()
    bk = make_bipartite_product(A, A, Assumption.SELF_LOOPS_FACTOR, require_connected=False)
    print(generation_throughput(bk).format())
