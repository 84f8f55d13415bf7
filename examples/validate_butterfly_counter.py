"""The paper's headline use case: validating a graph analytic.

§I: "if an implementation of a complex graph statistic has a minor
error (say a global count of 4-cycles is off by 1), it is difficult to
know, without a competing implementation."  With a non-stochastic
Kronecker generator you don't need a competing implementation -- the
generator *ships the answer*.

This example validates three analytics against generator ground truth:

1. the exact 4-cycle counter, Def. 8's matrix identity (passes),
2. a deliberately broken variant with a subtle off-by-one in its
   degree correction (caught immediately),
3. a sampling-based approximate counter (validated within tolerance).

Run: ``python examples/validate_butterfly_counter.py``
"""

import numpy as np
import scipy.sparse as sp

from repro import Assumption, konect_unicode_like, make_bipartite_product
from repro.analytics import approximate_butterflies, global_squares
from repro.graphs import BipartiteGraph
from repro.kronecker import global_squares_product


def buggy_global_butterflies(bg: BipartiteGraph) -> int:
    """A plausible-looking butterfly counter with a classic bug.

    Computes Σ_pairs C(codeg, 2) over U-side pairs but forgets to
    remove the diagonal self-codegree first -- each vertex's C(d, 2)
    "self pairs" leak into the total.  Reviews miss this kind of thing;
    ground truth doesn't.
    """
    X = bg.biadjacency()
    C = sp.csr_array(X @ X.T)  # BUG: diagonal not zeroed
    w = C.data.astype(np.int64)
    return int((w * (w - 1) // 2).sum()) // 2


def main() -> None:
    # A mid-size product we can also materialize for the direct counters:
    # slice of the unicode-like factor crossed with itself.
    A_full = konect_unicode_like()
    # Keep the 60 busiest languages and 100 busiest territories so the
    # slice stays sparse-but-square-rich like the full factor.
    d = A_full.graph.degrees()
    u_keep = A_full.U[np.argsort(-d[A_full.U])[:60]]
    w_keep = A_full.W[np.argsort(-d[A_full.W])[:100]]
    keep = np.sort(np.concatenate((u_keep, w_keep)))
    sub = A_full.graph.subgraph(keep)
    part = np.zeros(keep.size, dtype=bool)
    part[np.isin(keep, w_keep)] = True
    A = BipartiteGraph(sub, part)
    bk = make_bipartite_product(A, A, Assumption.SELF_LOOPS_FACTOR, require_connected=False)
    C = bk.materialize_bipartite()
    truth = global_squares_product(bk)
    print(f"product: {bk.n} vertices, {bk.m} edges; ground-truth 4-cycles = {truth:,}\n")

    # 1. the real counter
    got = global_squares(C.graph)
    verdict = "PASS" if got == truth else "FAIL"
    print(f"[{verdict}] exact butterfly counter       : {got:,}")

    # 2. the buggy counter
    got_buggy = buggy_global_butterflies(C)
    verdict = "PASS" if got_buggy == truth else "FAIL"
    print(f"[{verdict}] buggy counter (diag leak)     : {got_buggy:,}  "
          f"(off by {got_buggy - truth:,})")

    # 3. the approximate counter
    est = approximate_butterflies(C.graph, samples=20000, seed=1)
    rel = abs(est - truth) / truth
    verdict = "PASS" if rel < 0.1 else "FAIL"
    print(f"[{verdict}] wedge-sampling estimate       : {est:,.0f}  "
          f"(relative error {rel:.2%}, tolerance 10%)")


if __name__ == "__main__":
    main()
