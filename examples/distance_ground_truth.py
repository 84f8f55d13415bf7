"""Diameter and eccentricity ground truth (the §I carry-over claim).

Eccentricities of a Kronecker product follow from the walk
factorisation in the Thm. 1/2 proofs -- the same machinery the paper
uses for connectivity yields closed-form hop distances:

* Assumption 1(ii): ``hops_C = max(hops_A, hops_B)`` bumped to the
  parity of ``hops_B`` (lazy left walks erase parity constraints);
* Assumption 1(i): ``hops_C = max(hops_A^{parity of hops_B}, hops_B)``
  where parity-constrained distances come from one BFS per vertex on
  ``A``'s bipartite double cover.

This example computes every eccentricity of a ~38k-vertex product from
factor-sized tables, prints the eccentricity histogram, and spot-checks
against BFS on the materialized product.

Run: ``python examples/distance_ground_truth.py``
"""

from collections import Counter

import numpy as np

from repro import Assumption, make_bipartite_product
from repro.generators import scale_free_bipartite_factor
from repro.graphs.traversal import eccentricity
from repro.kronecker import product_diameter, product_eccentricities
from repro.obs import Span


def main() -> None:
    A = scale_free_bipartite_factor(60, 80, 2, seed=1)
    B = scale_free_bipartite_factor(120, 150, 2, seed=2)
    bk = make_bipartite_product(A, B, Assumption.SELF_LOOPS_FACTOR)
    print(f"product: {bk.n:,} vertices, {bk.m:,} edges (never materialized for the formulas)")

    with Span() as t:
        ecc = product_eccentricities(bk)
    print(f"all {ecc.size:,} eccentricities from factor tables in {t.elapsed:.2f}s")
    print(f"diameter = {product_diameter(bk)}, radius = {ecc.min()}")
    hist = Counter(ecc.tolist())
    print("eccentricity histogram:", dict(sorted(hist.items())))

    # Spot-check against BFS on the materialized product.
    C = bk.materialize()
    rng = np.random.default_rng(0)
    sample = rng.integers(0, C.n, 8)
    ok = all(ecc[p] == eccentricity(C, int(p)) for p in sample)
    print(f"BFS spot-check on {sample.size} vertices: {'all match' if ok else 'MISMATCH'}")


if __name__ == "__main__":
    main()
