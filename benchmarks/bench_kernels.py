"""Bench ``kernels``: the chain engine vs. the paper's printed forms.

The chain engine (:class:`repro.kronecker.multifactor.KroneckerChain`)
evaluates the multiplicative Def. 8/9 forms on per-factor tables: the
whole-product ◇ is one streamed pass over the product's entries, where
the printed term-by-term ``sp.kron`` evaluation
(:mod:`repro.refcheck.printed`: four full-size terms, a sparse sum, and
an O(|E_C|) re-anchoring extraction) is the "legacy" side of each row;
batched oracle queries replace scalar per-query Python calls.  This
module measures both gaps and *verifies bit-identity in the same run* --
every speedup row only records after the engine's output ("fused") is
checked equal to the printed one.

Run standalone: ``python benchmarks/bench_kernels.py``
"""

import os
import tracemalloc

import numpy as np

from repro.kronecker import GroundTruthOracle
from repro.kronecker.ground_truth import edge_squares_product, vertex_squares_product
from repro.kronecker.sampling import sample_edges
from repro.refcheck.printed import (
    edge_squares_product_reference,
    vertex_squares_product_reference,
)
from repro.utils.timing import Timer

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
ROUNDS = 1 if QUICK else 3


def _best_of(fn, rounds=ROUNDS):
    """(best_seconds, last_result) over ``rounds`` runs.

    One untimed warm-up call keeps one-time costs (lazy caches such as
    the handle's chain and its per-factor edge tables) out of the measurement -- quick mode
    times a single round, which would otherwise include them.
    """
    best, result = float("inf"), None
    fn()
    for _ in range(rounds):
        with Timer() as t:
            result = fn()
        best = min(best, t.elapsed)
    return best, result


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_edge_squares_product_fused_vs_legacy(unicode_product, record_bench):
    bk = unicode_product
    bk.factor_stats()  # shared setup out of both timings
    t_fused, fused = _best_of(lambda: edge_squares_product(bk))
    t_legacy, legacy = _best_of(lambda: edge_squares_product_reference(bk))
    # Bit-identity first; the speedup row only exists if this holds.
    np.testing.assert_array_equal(fused.indptr, legacy.indptr)
    np.testing.assert_array_equal(fused.indices, legacy.indices)
    np.testing.assert_array_equal(fused.data, legacy.data)
    mem_fused = _peak_bytes(lambda: edge_squares_product(bk))
    mem_legacy = _peak_bytes(lambda: edge_squares_product_reference(bk))
    speedup = t_legacy / max(t_fused, 1e-9)
    record_bench(
        f"edge ◇ over {fused.nnz:,} entries: fused {t_fused:.3f}s / "
        f"legacy {t_legacy:.3f}s = {speedup:.1f}x, peak mem "
        f"{mem_fused / 2**20:.0f} vs {mem_legacy / 2**20:.0f} MiB, bit-identical",
        entries=int(fused.nnz),
        fused_seconds=t_fused,
        legacy_seconds=t_legacy,
        speedup=speedup,
        fused_peak_bytes=mem_fused,
        legacy_peak_bytes=mem_legacy,
    )
    if not QUICK:
        assert speedup >= 3.0, f"fused edge kernel only {speedup:.2f}x faster"
        assert mem_fused < mem_legacy


def test_vertex_squares_fused_vs_legacy(unicode_product, record_bench):
    unicode_product.factor_stats()  # shared setup out of both timings
    t_fused, fused = _best_of(lambda: vertex_squares_product(unicode_product))
    t_legacy, legacy = _best_of(lambda: vertex_squares_product_reference(unicode_product))
    np.testing.assert_array_equal(fused, legacy)
    speedup = t_legacy / max(t_fused, 1e-9)
    record_bench(
        f"vertex s over {fused.size:,} vertices: fused {t_fused * 1e3:.1f}ms / "
        f"legacy {t_legacy * 1e3:.1f}ms = {speedup:.1f}x, bit-identical",
        vertices=int(fused.size),
        fused_seconds=t_fused,
        legacy_seconds=t_legacy,
        speedup=speedup,
    )
    assert speedup > 0


def _throughput_ratio(n_batch, t_batch, n_scalar, t_scalar):
    return (n_batch / max(t_batch, 1e-9)) / (n_scalar / max(t_scalar, 1e-9))


def test_batched_vs_scalar_vertex_queries(unicode_product, record_bench):
    oracle = GroundTruthOracle(unicode_product)
    rng = np.random.default_rng(0)
    n_batch = min(200_000, 50 * unicode_product.n)
    ps = rng.integers(0, unicode_product.n, n_batch)
    scalar_ps = ps[: min(2_000, n_batch)]
    t_batch, batched = _best_of(lambda: oracle.squares_at_vertices(ps))
    t_scalar, scalar = _best_of(
        lambda: [oracle.squares_at_vertex(int(p)) for p in scalar_ps]
    )
    np.testing.assert_array_equal(batched[: scalar_ps.size], np.array(scalar))
    ratio = _throughput_ratio(ps.size, t_batch, scalar_ps.size, t_scalar)
    record_bench(
        f"{ps.size:,} batched vertex queries in {t_batch * 1e3:.1f}ms "
        f"({ps.size / max(t_batch, 1e-9) / 1e6:.1f}M/s) = {ratio:.0f}x the "
        f"scalar loop, values identical",
        batch_queries=int(ps.size),
        batch_seconds=t_batch,
        scalar_queries=int(scalar_ps.size),
        scalar_seconds=t_scalar,
        throughput_ratio=ratio,
    )
    if not QUICK:
        assert ratio >= 100.0, f"batched vertex queries only {ratio:.0f}x"


def test_batched_vs_scalar_edge_queries(unicode_product, record_bench):
    oracle = GroundTruthOracle(unicode_product)
    n_batch = min(200_000, 25 * unicode_product.m)
    p, q, expected = sample_edges(unicode_product, n_batch, seed=1, oracle=oracle)
    scalar_n = min(2_000, p.size)
    t_batch, batched = _best_of(lambda: oracle.squares_at_edges(p, q))
    pairs = list(zip(p[:scalar_n].tolist(), q[:scalar_n].tolist()))
    t_scalar, scalar = _best_of(
        lambda: [oracle.squares_at_edge(a, b) for a, b in pairs]
    )
    np.testing.assert_array_equal(batched, expected)
    np.testing.assert_array_equal(batched[:scalar_n], np.array(scalar))
    ratio = _throughput_ratio(p.size, t_batch, scalar_n, t_scalar)
    record_bench(
        f"{p.size:,} batched edge queries in {t_batch * 1e3:.1f}ms "
        f"({p.size / max(t_batch, 1e-9) / 1e6:.1f}M/s) = {ratio:.0f}x the "
        f"scalar loop, values identical",
        batch_queries=int(p.size),
        batch_seconds=t_batch,
        scalar_queries=int(scalar_n),
        scalar_seconds=t_scalar,
        throughput_ratio=ratio,
    )
    if not QUICK:
        assert ratio >= 100.0, f"batched edge queries only {ratio:.0f}x"


def test_memory_footprint_bytes_vs_entries(unicode_product, record_bench):
    oracle = GroundTruthOracle(unicode_product)
    # Build the query tables so the byte count includes them honestly.
    oracle.squares_at_vertices([0])
    oracle.has_edges([0], [0])
    entries = oracle.memory_footprint_entries()
    nbytes = oracle.memory_footprint_bytes()
    product_entries = 2 * unicode_product.m
    record_bench(
        f"oracle stores {entries:,} entries / {nbytes / 2**20:.2f} MiB "
        f"for a {product_entries:,}-entry product "
        f"({product_entries / max(entries, 1):.0f}x compression)",
        stored_entries=int(entries),
        stored_bytes=int(nbytes),
        product_entries=int(product_entries),
    )
    assert nbytes >= 8 * entries  # int64 fields alone account for this


if __name__ == "__main__":
    from repro.generators import konect_unicode_like
    from repro.kronecker import Assumption, make_bipartite_product

    A = konect_unicode_like()
    bk = make_bipartite_product(A, A, Assumption.SELF_LOOPS_FACTOR, require_connected=False)
    bk.factor_stats()
    with Timer() as t_f:
        fused = edge_squares_product(bk)
    with Timer() as t_l:
        edge_squares_product_reference(bk)
    print(f"edge ◇ fused {t_f.elapsed:.3f}s vs legacy {t_l.elapsed:.3f}s "
          f"({t_l.elapsed / t_f.elapsed:.1f}x) over {fused.nnz:,} entries")
