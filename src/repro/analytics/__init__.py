"""Validation analytics: independent implementations of the statistics
the Kronecker formulas provide ground truth for.

The paper's whole pitch is that a generator with *exact* ground truth
lets you validate "a competing implementation" of an expensive graph
analytic.  This subpackage is that competing implementation -- every
formula in :mod:`repro.kronecker.ground_truth` is cross-checked against
the direct algorithms here (and both against brute force in tests):

* :mod:`~repro.analytics.triangles` -- 3-cycle counts (vertex / edge /
  global), relevant for the non-bipartite factor ``A`` of Assump. 1(i).
* :mod:`~repro.analytics.fourcycles` -- direct 4-cycle counting on any
  loop-free graph, bipartite (butterflies) or not: the closed-walk
  identities of Figs. 2 and 4 finished on the chain engine's numpy walk
  tables (the fast counter) and the paper's O(|V||E|) shortened-BFS
  algorithm (the §IV baseline).  The brute-force referee both are
  checked against is :mod:`repro.refcheck.brute`.
* :mod:`~repro.analytics.sampling` -- approximate global butterfly
  counting by wedge sampling (the "approximation techniques" §I says
  these generators help validate).
* :mod:`~repro.analytics.peel` -- k-wing (bitruss) numbers of
  Sarıyüce-Pinar [4], the analytic Rem. 1 says is hard to build ground
  truth for: ``peel_wing_numbers(C.graph.adj)`` peels any loop-free
  graph (``.wing`` per edge keyed ``(min, max)``, ``.max_wing``).
* :mod:`~repro.analytics.clustering_coeffs` -- bipartite clustering
  coefficients: the per-edge metamorphosis coefficient (Def. 10), the
  Robins-Alexander global coefficient, and degree-binned averages.
"""

from repro._lazy import lazy_exports
from repro.analytics.projection import projection  # noqa: F401 - shadows its submodule (repro._lazy)

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "vertex_triangles": ".triangles",
    "edge_triangles": ".triangles",
    "global_triangles": ".triangles",
    "vertex_squares_matrix": ".fourcycles",
    "vertex_squares_bfs": ".fourcycles",
    "edge_squares_matrix": ".fourcycles",
    "global_squares": ".fourcycles",
    "approximate_butterflies": ".sampling",
    "projection": ".projection",
    "product_projection": ".projection",
    "WingPeelResult": ".peel",
    "peel_wing_numbers": ".peel",
    "peel_product": ".peel",
    "peel_chain": ".peel",
    "tip_decomposition": ".tip",
    "tip_number_max": ".tip",
    "truss_decomposition": ".truss",
    "truss_number_max": ".truss",
    "edge_clustering_coefficients": ".clustering_coeffs",
    "robins_alexander_coefficient": ".clustering_coeffs",
    "degree_binned_edge_clustering": ".clustering_coeffs",
})
