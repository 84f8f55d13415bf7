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
  loop-free graph: the paper's O(|V||E|) shortened-BFS algorithm, the
  codegree (wedge-hash) method, the closed-walk matrix identities of
  Figs. 2 and 4, and O(n^4) brute force for tiny referees.
* :mod:`~repro.analytics.butterflies` -- bipartite-specialised
  per-vertex / per-edge butterfly counting on the biadjacency (the
  vertex-priority side trick), used at product scale.
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

from repro.analytics.peel import (
    WingPeelResult,
    peel_chain,
    peel_product,
    peel_wing_numbers,
)
from repro.analytics.tip import tip_decomposition, tip_number_max
from repro.analytics.butterflies import (
    edge_butterflies,
    global_butterflies,
    vertex_butterflies,
)
from repro.analytics.clustering_coeffs import (
    degree_binned_edge_clustering,
    edge_clustering_coefficients,
    robins_alexander_coefficient,
)
from repro.analytics.fourcycles import (
    count_squares_brute,
    edge_squares_brute,
    edge_squares_matrix,
    global_squares,
    vertex_squares_bfs,
    vertex_squares_brute,
    vertex_squares_codegree,
    vertex_squares_matrix,
)
from repro.analytics.paths import (
    global_caterpillars,
    global_l3_paths,
    global_wedges,
    l3_paths_per_edge,
    wedge_counts,
)
from repro.analytics.projection import product_projection, projection
from repro.analytics.sampling import approximate_butterflies
from repro.analytics.truss import truss_decomposition, truss_number_max
from repro.analytics.triangles import (
    edge_triangles,
    global_triangles,
    vertex_triangles,
)

__all__ = [
    "vertex_triangles",
    "edge_triangles",
    "global_triangles",
    "vertex_squares_matrix",
    "vertex_squares_codegree",
    "vertex_squares_bfs",
    "vertex_squares_brute",
    "edge_squares_matrix",
    "edge_squares_brute",
    "count_squares_brute",
    "global_squares",
    "vertex_butterflies",
    "edge_butterflies",
    "global_butterflies",
    "approximate_butterflies",
    "global_wedges",
    "wedge_counts",
    "global_l3_paths",
    "l3_paths_per_edge",
    "global_caterpillars",
    "projection",
    "product_projection",
    "WingPeelResult",
    "peel_wing_numbers",
    "peel_product",
    "peel_chain",
    "tip_decomposition",
    "tip_number_max",
    "truss_decomposition",
    "truss_number_max",
    "edge_clustering_coefficients",
    "robins_alexander_coefficient",
    "degree_binned_edge_clustering",
]
