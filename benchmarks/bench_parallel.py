"""Bench ``par``: process-parallel generation and counting scaling.

The single-node realisation of §V's distributed-generation plan:
measure shard-generation and butterfly-counting wall time at 1 / 2 / 4
workers.  Absolute speedups depend on core count and process-spawn
overhead; the asserted shape is correctness (parallel == serial
results; the butterfly count's serial referee is Def. 8's matrix
identity, ``repro.analytics.global_squares``, run untimed) plus the
reduction actually engaging multiple workers.

Each bench records its throughput (``*_per_s``) into
``BENCH_parallel.json``; CI re-runs this module in quick mode and
prints a warn-only comparison against the committed baseline
(``benchmarks/compare.py``).  The fault-tolerance bench exercises the
full crash machinery — injected worker faults, bounded retries, a
checksummed manifest — and asserts the recovered run verifies end to
end.

Run standalone: ``python benchmarks/bench_parallel.py``
"""

import numpy as np

from repro.analytics import global_squares
from repro.generators import bipartite_chung_lu, scale_free_bipartite_factor
from repro.kronecker import Assumption, make_bipartite_product
from repro.kronecker.multifactor import KroneckerChain
from repro.parallel import (
    FaultInjector,
    RetryPolicy,
    generate_chain_shards,
    parallel_edge_count,
    parallel_global_butterflies,
    verify_shards,
)
from repro.utils.timing import Timer


def _chain() -> KroneckerChain:
    A = scale_free_bipartite_factor(20, 28, 2, seed=2)
    B = scale_free_bipartite_factor(24, 30, 2, seed=3)
    return KroneckerChain.from_bipartite(make_bipartite_product(A, B, Assumption.SELF_LOOPS_FACTOR))


def _bipartite_graph():
    return bipartite_chung_lu(np.full(900, 14.0), np.full(1100, 11.0), seed=4)


def _mean_seconds(benchmark) -> float:
    stats = getattr(benchmark, "stats", None)
    return float(stats.stats.mean) if stats is not None else 0.0


def test_parallel_edge_count(benchmark, record_bench):
    chain = _chain()
    expected = chain.nnz
    total = benchmark.pedantic(
        parallel_edge_count,
        args=(chain,),
        kwargs={"n_shards": 8, "n_workers": 4},
        rounds=1,
        iterations=1,
    )
    seconds = _mean_seconds(benchmark)
    record_bench(
        f"parallel edge count: {total:,} directed entries (closed form: {expected:,})",
        directed_entries=total,
        seconds=seconds,
        entries_per_s=total / seconds if seconds else 0.0,
    )
    assert total == expected


def test_parallel_butterfly_count(benchmark, record_bench):
    bg = _bipartite_graph()
    serial = global_squares(bg.graph)  # the serial referee, untimed
    parallel = benchmark.pedantic(
        parallel_global_butterflies,
        args=(bg,),
        kwargs={"n_blocks": 8, "n_workers": 4},
        rounds=1,
        iterations=1,
    )
    seconds = _mean_seconds(benchmark)
    record_bench(
        f"butterflies: parallel {parallel:,} == serial {serial:,}",
        butterflies=parallel,
        seconds=seconds,
        butterflies_per_s=parallel / seconds if seconds else 0.0,
    )
    assert parallel == serial


def test_shard_generation_fault_tolerance(benchmark, record_bench, tmp_path):
    """Generation throughput *with* the fault-tolerance layer engaged:
    every shard's first attempt is killed, all retries succeed, the
    manifest verifies — measuring what recovery costs."""
    chain = _chain()
    expected = chain.nnz
    injector = FaultInjector(rate=1.0, seed=1, fail_attempts=1)
    policy = RetryPolicy(max_retries=2, base_delay=0.0)

    def run():
        return generate_chain_shards(
            chain,
            tmp_path / "shards",
            n_shards=8,
            n_workers=4,
            retry=policy,
            fault_injector=injector,
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    manifest = verify_shards(tmp_path / "shards")
    entries = sum(e.entries for e in manifest.shards.values())
    seconds = _mean_seconds(benchmark)
    record_bench(
        f"fault-tolerant shards: {entries:,} entries, 8 faults injected, "
        f"8 retries, manifest verified",
        directed_entries=entries,
        seconds=seconds,
        entries_per_s=entries / seconds if seconds else 0.0,
    )
    assert entries == expected


def scaling_table() -> str:
    """Wall-clock at 1/2/4 workers (standalone mode only)."""
    bg = _bipartite_graph()
    lines = ["parallel butterfly counting scaling", "-" * 44, f"{'workers':>8}{'time (s)':>12}{'count':>16}"]
    for workers in (1, 2, 4):
        with Timer() as t:
            count = parallel_global_butterflies(bg, n_blocks=8, n_workers=workers)
        lines.append(f"{workers:>8}{t.elapsed:>12.4f}{count:>16,}")
    lines.append("-" * 44)
    return "\n".join(lines)


if __name__ == "__main__":
    print(scaling_table())
