"""End-to-end: design a benchmark graph, then use it to validate code.

The complete workflow the paper envisions for a practitioner:

1. **Design** -- "I need a validation graph with ~2,000 vertices and
   ~100k 4-cycles": search the factor library with the sublinear
   formulas (:mod:`repro.kronecker.design`).
2. **Generate** -- stream the winning product with exact per-edge
   ground truth attached.
3. **Validate** -- run a counter implementation through the
   :mod:`repro.validation` harness: the correct one passes everywhere;
   a subtly broken one is caught with a minimal reproducing product.

Run: ``python examples/design_and_validate.py``
"""

import numpy as np
import scipy.sparse as sp

from repro.analytics import global_squares
from repro.graphs import BipartiteGraph
from repro.kronecker import global_squares_product, stream_edges
from repro.kronecker.design import DesignTarget, design_product
from repro.validation import validate_counter


def subtly_broken_counter(bg: BipartiteGraph) -> int:
    """Counts butterflies but forgets the self-codegree diagonal."""
    X = bg.biadjacency()
    C = sp.csr_array(X @ X.T)  # BUG: no setdiag(0)
    w = C.data.astype(np.int64)
    return int((w * (w - 1) // 2).sum()) // 2


def main() -> None:
    # ------------------------------------------------------------------
    # 1. design
    # ------------------------------------------------------------------
    target = DesignTarget(n_vertices=2_000, global_squares=100_000)
    candidates = design_product(target, top_k=3)
    print("design targets: n~2,000, squares~100,000")
    for cand in candidates:
        print(f"  {cand.format()}")
    best = candidates[0]
    bk = best.bk
    print(f"\nchosen: {best.label_a} (x) {best.label_b}")

    # ------------------------------------------------------------------
    # 2. generate with ground truth
    # ------------------------------------------------------------------
    entries = 0
    square_sum = 0
    for p, _q, dia in stream_edges(bk, attach_ground_truth=True):
        entries += p.size
        square_sum += int(np.sum(dia))
    print(f"streamed {entries:,} directed entries; Σ◇ = {square_sum:,} "
          f"= 8 x {square_sum // 8:,} squares (global check: "
          f"{global_squares_product(bk):,})")

    # ------------------------------------------------------------------
    # 3. validate a correct and a broken counter
    # ------------------------------------------------------------------
    print("\nvalidating the library's exact counter:")
    print(validate_counter(lambda bg: global_squares(bg.graph), "global").format())
    print("\nvalidating a subtly broken counter (diagonal leak):")
    print(validate_counter(subtly_broken_counter, "global").format())


if __name__ == "__main__":
    main()
