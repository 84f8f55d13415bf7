"""Bench ``oracle``: per-query latency of the ground-truth oracle.

§I's cost model says local ground truth comes from factor-sized state:
vertex queries are O(1) and edge queries O(log d) *independent of the
product's size*.  This bench measures query latency on the 753k-vertex
unicode-scale product and on a product ~100x smaller; the claim is that
the latencies match (no dependence on |E_C|).

Run standalone: ``python benchmarks/bench_oracle_queries.py``
"""

import numpy as np

from repro.generators import konect_unicode_like
from repro.kronecker import Assumption, GroundTruthOracle, make_bipartite_product
from repro.kronecker.sampling import sample_edges
from repro.obs import Span


def _small_product():
    from repro.generators import complete_bipartite

    f = complete_bipartite(8, 9)
    return make_bipartite_product(f, f, Assumption.SELF_LOOPS_FACTOR)


def test_vertex_query_latency(benchmark, unicode_product, record_bench):
    oracle = GroundTruthOracle(unicode_product)
    rng = np.random.default_rng(0)
    vertices = rng.integers(0, unicode_product.n, 1000).tolist()

    def run():
        return sum(oracle.squares_at_vertex(p) for p in vertices)

    total = benchmark(run)
    record_bench(
        f"1000 vertex queries on a {unicode_product.n:,}-vertex product "
        f"(Σ sampled counts = {total:,})",
        n_vertices=unicode_product.n,
    )
    assert total >= 0


def test_edge_query_latency(benchmark, unicode_product, record_bench):
    oracle = GroundTruthOracle(unicode_product)
    p, q, expected = sample_edges(unicode_product, 1000, seed=1, oracle=oracle)
    pairs = list(zip(p.tolist(), q.tolist()))

    def run():
        return sum(oracle.squares_at_edge(a, b) for a, b in pairs)

    total = benchmark(run)
    record_bench(
        f"1000 edge queries on a {unicode_product.m:,}-edge product",
        n_edges=unicode_product.m,
    )
    assert total == int(expected.sum())


def test_latency_independent_of_product_size(benchmark, unicode_product, record_bench):
    """The §I size-independence claim, asserted directly."""
    big = GroundTruthOracle(unicode_product)
    small_bk = _small_product()
    small = GroundTruthOracle(small_bk)
    rng = np.random.default_rng(2)
    big_vertices = rng.integers(0, unicode_product.n, 2000).tolist()
    small_vertices = rng.integers(0, small_bk.n, 2000).tolist()

    def measure():
        with Span() as t_big:
            for p in big_vertices:
                big.squares_at_vertex(p)
        with Span() as t_small:
            for p in small_vertices:
                small.squares_at_vertex(p)
        return t_big.elapsed / max(t_small.elapsed, 1e-9)

    ratio = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_bench(
        f"per-query time ratio (big vs {small_bk.n}-vertex product): {ratio:.2f}x",
        ratio=ratio,
    )
    # Size-independent up to noise: well under the ~3000x size ratio.
    assert ratio < 5.0


if __name__ == "__main__":
    A = konect_unicode_like()
    bk = make_bipartite_product(A, A, Assumption.SELF_LOOPS_FACTOR, require_connected=False)
    oracle = GroundTruthOracle(bk)
    rng = np.random.default_rng(0)
    with Span() as t:
        for p in rng.integers(0, bk.n, 10000).tolist():
            oracle.squares_at_vertex(p)
    print(f"10k vertex queries on the 753k-vertex product: {t.elapsed:.3f}s "
          f"({t.elapsed / 10000 * 1e6:.1f} µs/query)")
