"""Bench ``gen``: streaming edge generation vs materialization.

The generator use case (§I, §V future work): emit the product's edges
block-by-block in factor-sized memory, optionally with per-edge ground
truth attached during generation.  Times both against scipy's
materializing ``kron`` at unicode scale (~8.7M directed entries).

Results go into ``BENCH_generation.json`` via ``record_bench``; CI's
smoke job validates that record under ``REPRO_BENCH_QUICK=1``.

Run standalone: ``python benchmarks/bench_generation.py``
"""

from repro.experiments import generation_throughput
from repro.kronecker import stream_edges
from repro.utils.timing import Timer


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
        with Timer() as t:
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


if __name__ == "__main__":
    from repro.generators import konect_unicode_like
    from repro.kronecker import Assumption, make_bipartite_product

    A = konect_unicode_like()
    bk = make_bipartite_product(A, A, Assumption.SELF_LOOPS_FACTOR, require_connected=False)
    print(generation_throughput(bk).format())
