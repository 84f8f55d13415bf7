"""k-wing decomposition and Remark 1's obstruction.

The paper's Rem. 1: it is easy to build Kronecker graphs with ground
truth *truss* decompositions (triangles can be suppressed), but nearly
impossible for the bipartite analogue -- the k-wing decomposition of
Sarıyüce-Pinar [4] -- because non-trivial products always acquire
4-cycles, even from square-free factors.

This example makes that concrete:

1. two square-free factors -> their product still has squares, so the
   product's wing numbers are not inherited from the factors;
2. the k-wing decomposition of a structured product, showing how
   Kronecker structure shapes the wing hierarchy;
3. generator-side ground truth (edge 4-cycle counts) used to *seed*
   the peeling, demonstrating what the generator can and cannot give
   you for wing validation.

Run: ``python examples/wing_peeling.py``
"""

from collections import Counter

from repro import Assumption, complete_bipartite, make_bipartite_product, path_graph
from repro.analytics import peel_wing_numbers
from repro.analytics.fourcycles import global_squares
from repro.kronecker import edge_squares_product, squares_if_square_free_factors


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Remark 1: square-free factors, square-full product.
    # ------------------------------------------------------------------
    A = path_graph(4)
    B = path_graph(5)
    print(f"factors: P4 ({global_squares(A)} squares), P5 ({global_squares(B)} squares)")
    predicted = squares_if_square_free_factors(A.with_all_self_loops().without_self_loops(), B)
    bk = make_bipartite_product(A, B, Assumption.SELF_LOOPS_FACTOR)
    C = bk.materialize_bipartite()
    print(f"product (A+I)(x)B: {global_squares(C.graph)} squares "
          f"(A (x) B alone would already have {predicted})")
    peel = peel_wing_numbers(C.graph.adj)
    hist = Counter(peel.wing.values())
    print(f"product wing histogram: {dict(sorted(hist.items()))}")
    print(f"max wing number: {peel.max_wing}  "
          "(nonzero although every factor edge has wing 0 -- Rem. 1)\n")

    # ------------------------------------------------------------------
    # 2. A structured product's wing hierarchy.
    # ------------------------------------------------------------------
    A2 = complete_bipartite(2, 2)
    B2 = complete_bipartite(2, 3)
    bk2 = make_bipartite_product(A2, B2, Assumption.SELF_LOOPS_FACTOR)
    C2 = bk2.materialize_bipartite()
    peel2 = peel_wing_numbers(C2.graph.adj)
    hist2 = Counter(peel2.wing.values())
    print(f"K22 (x) K23 product: {C2.m} edges, wing histogram {dict(sorted(hist2.items()))}")

    # ------------------------------------------------------------------
    # 3. Ground truth as a peeling seed: the generator gives exact
    #    initial butterfly supports (wing >= support never holds, but
    #    support bounds wing from above and seeds the peel exactly).
    # ------------------------------------------------------------------
    dia = edge_squares_product(bk2).tocoo()
    support_max = int(dia.data.max())
    print(f"generator-provided max initial support: {support_max}")
    print(f"measured max wing number             : {peel2.max_wing}")
    print("the generator hands every edge's exact initial support for free;")
    print("the peeling itself still has to run -- exactly the limitation Rem. 1 notes.")


if __name__ == "__main__":
    main()
