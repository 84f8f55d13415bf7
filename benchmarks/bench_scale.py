"""Bench ``scale``: the extreme-scale generation tier.

Three contracts, all asserted in-bench (not just recorded):

1. **Throughput trajectory** — streaming a 4-factor preferential-
   attachment chain must not fall off a cliff as the entry count grows
   10x: edges/sec droop from the ~1e8 leg to the ~1e9 leg is bounded at
   25% (full mode; quick mode runs ~1e6 -> ~1e7 stand-ins and records
   without asserting the droop, since sub-second legs are noise).
2. **Partitioner quality** — on a power-law chain the degree-aware
   strategy's max/mean work imbalance stays <= 1.3 while naive equal
   row ranges skew >= 2.0.  Asserted in both modes: the plan is
   closed-form, so the contract holds at any size.
3. **Bit identity** — the shard-union entry set (with ground truth) of
   the degree-cut ``repro.edges/1`` shards is identical under every
   block codec (raw and deflate); each codec's
   on-disk size is recorded.
4. **Flat write memory** — one ground-truth shard is written in a fresh
   process at two sizes ~10x apart; each run's peak RSS above the
   process's baseline (after imports and the chain build) is recorded.  The writer streams blocks, so
   the two growths differ by far less than the shards do
   (``benchmarks/smoke.py`` checks the margin in both modes).

Every bench records throughput into ``BENCH_scale.json``; CI re-runs
this module in quick mode and gates the regression via
``benchmarks/compare.py``.

Run standalone: ``python benchmarks/bench_scale.py``
"""

import json
import os
import subprocess
import sys
import textwrap

from repro.generators.classic import complete_bipartite
from repro.generators.scale_free import preferential_attachment
from repro.kronecker import Assumption, make_bipartite_product
from repro.kronecker.multifactor import KroneckerChain
from repro.obs import Span
from repro.parallel import generate_chain_shards, load_shards, plan_partition

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

# Streaming block budget (the library default): ~16 MB of int64 pairs
# per block — measured fastest on both trajectory legs, where bigger
# blocks fall out of cache.
BLOCK_ENTRIES = 1 << 20

# Four-factor chains whose directed entry counts straddle the tier's
# 1e8 -> 1e9 trajectory (quick mode: ~1.3e6 -> ~1.9e7 stand-ins).
SMALL_N, LARGE_N = (10, 18) if QUICK else (27, 46)
MAX_DROOP = 0.25
# Best-of-N per leg: on a shared box single-shot rates swing ~10%,
# which would drown the droop signal.  Quick mode takes one shot.
ROUNDS = 1 if QUICK else 3


def _chain(n: int) -> KroneckerChain:
    factors = [preferential_attachment(n, 2, seed=11 + t) for t in range(4)]
    return KroneckerChain.from_graphs(factors)


def _stream_entries(chain: KroneckerChain) -> int:
    total = 0
    for block in chain.stream_rows(0, chain.n, block_entries=BLOCK_ENTRIES):
        total += int(block[0].size)
    return total


def _mean_seconds(benchmark) -> float:
    stats = getattr(benchmark, "stats", None)
    return float(stats.stats.mean) if stats is not None else 0.0


def _best_seconds(benchmark) -> float:
    stats = getattr(benchmark, "stats", None)
    return float(stats.stats.min) if stats is not None else 0.0


def test_stream_throughput_droop(benchmark, record_bench):
    """Edges/sec at ~1e9 entries vs ~1e8 entries: droop <= 25%.

    The small leg is timed with a plain wall clock (best of ``ROUNDS``);
    the large leg is the measured benchmark (best of ``ROUNDS`` rounds).
    Both legs assert full coverage (streamed entry count == closed-form
    nnz) so the rate is over real work.
    """
    small, large = _chain(SMALL_N), _chain(LARGE_N)
    small_seconds = float("inf")
    for _ in range(ROUNDS):
        with Span() as t_small:
            small_total = _stream_entries(small)
        small_seconds = min(small_seconds, t_small.elapsed)
    assert small_total == small.nnz
    small_rate = small_total / small_seconds if small_seconds else 0.0

    large_total = benchmark.pedantic(
        _stream_entries, args=(large,), rounds=ROUNDS, iterations=1
    )
    assert large_total == large.nnz
    seconds = _best_seconds(benchmark)
    large_rate = large_total / seconds if seconds else 0.0

    droop = 1.0 - large_rate / small_rate if small_rate else 0.0
    record_bench(
        f"stream {small_total:,} -> {large_total:,} entries: "
        f"{small_rate / 1e6:.1f} -> {large_rate / 1e6:.1f} M entries/s "
        f"(droop {droop:+.1%})",
        small_entries=small_total,
        large_entries=large_total,
        small_entries_per_s=small_rate,
        entries_per_s=large_rate,
        droop=droop,
        seconds=seconds,
    )
    if not QUICK:
        # The tier's headline claim: a 10x size jump past 1e8 directed
        # entries costs at most 25% of streaming throughput.
        assert large_total >= 10**9 and small_total >= 10**8
        assert droop <= MAX_DROOP, f"throughput droop {droop:.1%} exceeds {MAX_DROOP:.0%}"


def test_degree_partitioner_imbalance(benchmark, record_bench):
    """Degree-aware cuts balance a power-law chain that equal row
    ranges badly skew.  Closed-form, so asserted in both modes."""
    g = preferential_attachment(400, 1, seed=5)
    chain = KroneckerChain.from_graphs([g, g])
    degree = benchmark.pedantic(
        plan_partition, args=(chain, 8, "degree"), rounds=1, iterations=1
    )
    rows = plan_partition(chain, 8, "rows")
    seconds = _mean_seconds(benchmark)
    record_bench(
        f"partition {chain.n:,} rows / {chain.nnz:,} entries x8: "
        f"imbalance degree {degree.imbalance():.3f} vs rows {rows.imbalance():.3f}",
        product_rows=chain.n,
        directed_entries=chain.nnz,
        degree_imbalance=degree.imbalance(),
        rows_imbalance=rows.imbalance(),
        seconds=seconds,
        rows_per_s=chain.n / seconds if seconds else 0.0,
    )
    assert rows.total_work == degree.total_work == chain.nnz
    assert degree.imbalance() <= 1.3, "degree partitioner lost its balance guarantee"
    assert rows.imbalance() >= 2.0, "power-law skew vanished; bench no longer meaningful"


def test_shard_bit_identity_across_formats(benchmark, record_bench, tmp_path):
    """The union of generated shards is bit-identical under every block
    codec of the one container: encoding never changes what was
    generated."""
    chain = make_bipartite_product(
        preferential_attachment(12 if QUICK else 24, 2, seed=9),
        complete_bipartite(3, 4),
        Assumption.NON_BIPARTITE_FACTOR,
    ).chain
    codecs = ["raw", "deflate"]

    def run():
        unions = {}
        for codec in codecs:
            out = tmp_path / codec
            paths = generate_chain_shards(
                chain, out, n_shards=4, n_workers=1, ground_truth=True, codec=codec
            )
            data = load_shards(paths, manifest=out)
            unions[codec] = sorted(
                zip(data["p"].tolist(), data["q"].tolist(), data["squares"].tolist())
            )
        return unions

    unions = benchmark.pedantic(run, rounds=1, iterations=1)
    reference = unions["raw"]
    for codec, triples in unions.items():
        assert triples == reference, codec
    assert len(reference) == chain.nnz

    sizes = {
        f"bytes_edges_{codec}": sum(p.stat().st_size for p in (tmp_path / codec).glob("*.edges"))
        for codec in codecs
    }
    seconds = _mean_seconds(benchmark)
    record_bench(
        f"bit-identical shard unions: {len(reference):,} entries across "
        f"{len(codecs)} codecs ({', '.join(codecs)})",
        directed_entries=len(reference),
        seconds=seconds,
        entries_per_s=len(codecs) * len(reference) / seconds if seconds else 0.0,
        **sizes,
    )


# Write-memory legs: (factors, factor n) of the small and the large
# shard, ~10x apart in entries (quick: 195k -> 2.2M; full: 1.3M -> 14.8M).
MEMORY_LEGS = ((3, 16), (3, 34)) if QUICK else ((4, 10), (4, 17))

# The child reads its peak from ``VmHWM`` (Linux), the high-water mark
# of its own address space: ``ru_maxrss`` would also carry the RSS of the
# process that forked it, which under pytest exceeds a whole shard write.
_SHARD_CHILD = textwrap.dedent("""
    import json, sys, tempfile, time
    from repro.generators.scale_free import preferential_attachment
    from repro.kronecker.multifactor import KroneckerChain
    from repro.parallel import generate_chain_shards

    def peak_mb():
        with open("/proc/self/status") as fh:
            kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
        return kb / 1024.0

    k, n = int(sys.argv[1]), int(sys.argv[2])
    chain = KroneckerChain.from_graphs(
        [preferential_attachment(n, 2, seed=11 + t) for t in range(k)]
    )
    base = peak_mb()
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        generate_chain_shards(chain, out, n_shards=1, n_workers=1, ground_truth=True)
        seconds = time.perf_counter() - t0
    print(json.dumps({"entries": chain.nnz, "seconds": seconds,
                      "growth_mb": peak_mb() - base}))
""")


def _write_shard_in_child(n_factors: int, n: int) -> dict:
    """One serial ground-truth shard written by a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _SHARD_CHILD, str(n_factors), str(n)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def test_shard_write_memory(benchmark, record_bench):
    """A shard ~10x larger costs about the same writer memory: peak RSS
    growth over the import baseline is one block's worth at both sizes."""
    small = _write_shard_in_child(*MEMORY_LEGS[0])
    large = benchmark.pedantic(
        _write_shard_in_child, args=MEMORY_LEGS[1], rounds=1, iterations=1
    )
    shard_mb = 24 * large["entries"] / 2**20
    delta = large["growth_mb"] - small["growth_mb"]
    record_bench(
        f"shard write peak RSS growth: {small['entries']:,} entries "
        f"{small['growth_mb']:.1f} MB, {large['entries']:,} entries "
        f"{large['growth_mb']:.1f} MB (shard {shard_mb:.0f} MB)",
        small_entries=small["entries"],
        large_entries=large["entries"],
        small_growth_mb=small["growth_mb"],
        large_growth_mb=large["growth_mb"],
        growth_delta_mb=delta,
        large_shard_mb=shard_mb,
        seconds=large["seconds"],
        entries_per_s=large["entries"] / large["seconds"],
    )
    assert large["entries"] >= 8 * small["entries"]


def trajectory_table() -> str:
    """Streaming rate at each trajectory leg (standalone mode only)."""
    lines = [
        "extreme-scale streaming trajectory",
        "-" * 52,
        f"{'factor n':>10}{'entries':>18}{'time (s)':>10}{'M/s':>10}",
    ]
    for n in (SMALL_N, LARGE_N):
        chain = _chain(n)
        with Span() as t:
            total = _stream_entries(chain)
        lines.append(
            f"{n:>10}{total:>18,}{t.elapsed:>10.2f}{total / t.elapsed / 1e6:>10.1f}"
        )
    lines.append("-" * 52)
    return "\n".join(lines)


if __name__ == "__main__":
    print(trajectory_table())
