"""Massive-scale generation without materialization.

Builds the §IV product ``C = (A + I) (x) A`` (753k vertices, ~4.4M
edges, ~8.7M directed entries) and then:

* computes the exact global 4-cycle count *without touching C*,
* streams every edge in 2**16-entry blocks, attaching exact per-edge
  4-cycle ground truth during generation (the paper's §V future-work
  item),
* certifies connectivity structure by streaming through a union-find.

Memory never exceeds factor scale plus one block plus the union-find
labels -- the pattern a distributed GraphBLAS generator would follow.

Run: ``python examples/massive_stream.py``
"""

import numpy as np

from repro import Assumption, konect_unicode_like, make_bipartite_product
from repro.kronecker import GroundTruthOracle, global_squares_product, stream_edges
from repro.kronecker.streaming import streamed_connectivity_audit
from repro.obs import Span


def main() -> None:
    A = konect_unicode_like()
    bk = make_bipartite_product(A, A, Assumption.SELF_LOOPS_FACTOR, require_connected=False)
    print(f"implicit product: {bk.n:,} vertices, {bk.m:,} undirected edges")

    with Span() as t:
        total = global_squares_product(bk)
    print(f"exact global 4-cycles (sublinear, no product touched): {total:,}  "
          f"[{t.elapsed:.3f}s]")

    oracle = GroundTruthOracle(bk)
    print(f"oracle memory: {oracle.memory_footprint_entries():,} factor entries "
          f"vs {bk.m:,} product edges")

    # Stream all edges, tracking the busiest edge seen.
    with Span() as t:
        entries = 0
        best = (-1, -1, -1)
        for p, q, dia in stream_edges(bk, attach_ground_truth=True):
            entries += p.size
            k = int(np.argmax(dia))
            if dia[k] > best[2]:
                best = (int(p[k]), int(q[k]), int(dia[k]))
    print(f"streamed {entries:,} directed entries with ground truth attached "
          f"[{t.elapsed:.2f}s]")
    print(f"busiest edge: ({best[0]}, {best[1]}) participates in {best[2]:,} 4-cycles")
    # Spot-check the stream against the oracle.
    assert oracle.squares_at_edge(best[0], best[1]) == best[2]

    # Connectivity audit (the factor is disconnected, so C is too --
    # exactly what Thm 2's hypotheses warn about).
    with Span() as t:
        n_components, edges = streamed_connectivity_audit(bk)
    print(f"\nstreamed connectivity audit: {n_components:,} components over {edges:,} edges "
          f"[{t.elapsed:.1f}s]")
    print("(the unicode-like factor is disconnected, so the product is too; "
          "Thm 2 requires connected factors)")


if __name__ == "__main__":
    main()
