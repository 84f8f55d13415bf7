"""Bench ``par``: fault-tolerant process-parallel shard generation.

The single-node realisation of §V's distributed-generation plan: a
Kronecker chain is cut into ``degree``-balanced row ranges and written
as shards by worker processes.  The bench exercises the full crash
machinery — injected worker faults, bounded retries, a checksummed
manifest — and asserts the recovered run verifies end to end and holds
exactly ``chain.nnz`` entries (the closed form; nothing is recounted).

The bench records its throughput (``entries_per_s``) into
``BENCH_parallel.json``; CI re-runs this module in quick mode and
prints a warn-only comparison against the committed baseline
(``benchmarks/compare.py``).
"""

from repro.generators import scale_free_bipartite_factor
from repro.kronecker import Assumption, make_bipartite_product
from repro.kronecker.multifactor import KroneckerChain
from repro.parallel import FaultInjector, RetryPolicy, generate_chain_shards, verify_shards


def _chain() -> KroneckerChain:
    A = scale_free_bipartite_factor(20, 28, 2, seed=2)
    B = scale_free_bipartite_factor(24, 30, 2, seed=3)
    return make_bipartite_product(A, B, Assumption.SELF_LOOPS_FACTOR).chain


def _mean_seconds(benchmark) -> float:
    stats = getattr(benchmark, "stats", None)
    return float(stats.stats.mean) if stats is not None else 0.0


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
