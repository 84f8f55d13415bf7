"""The paper's core contribution: bipartite Kronecker generation with
ground-truth 4-cycle and density statistics.

Layer map (paper section in parentheses):

* :mod:`~repro.kronecker.indexing` -- product/factor index maps (Def. 4).
* :mod:`~repro.kronecker.product` -- materialized and implicit
  Kronecker products, multi-factor powers (Def. 4).
* :mod:`~repro.kronecker.assumptions` -- Assumption 1(i)/(ii)
  validation and the central :class:`BipartiteKronecker` handle
  (§III-A).
* :mod:`~repro.kronecker.connectivity` -- Thms. 1-2 predictions and
  the Weichsel disconnection certificate (§III-A).
* :mod:`~repro.kronecker.ground_truth` -- per-factor statistics and
  the 4-cycle formulas: Thm. 3/4 (vertices), Thm. 5 and our derived
  Assumption-1(ii) variant (edges), plus sublinear global counts
  (§III-B).
* :mod:`~repro.kronecker.kernels` -- fused point-wise evaluation of
  the Thm. 3/4/5 formulas on index batches: the hot core shared by
  the formula, oracle, streaming, and parallel layers.
* :mod:`~repro.kronecker.clustering` -- Def. 10 / Thm. 6 edge
  clustering scaling law (§III-B3).
* :mod:`~repro.kronecker.community` -- Defs. 11-12, Thm. 7,
  Cors. 1-2 community preservation (§III-C).
* :mod:`~repro.kronecker.streaming` -- block edge-stream generation
  without materializing the product (§I generation use case).
* :mod:`~repro.kronecker.oracle` -- O(factor)-memory query object
  answering local ground-truth questions about arbitrary product
  vertices/edges (§I cost model).
"""

from repro.kronecker.assumptions import (
    Assumption,
    BipartiteKronecker,
    make_bipartite_product,
)
from repro.kronecker.clustering import (
    edge_clustering_ground_truth,
    psi_factor,
    thm6_lower_bound,
)
from repro.kronecker.community import (
    BipartiteCommunity,
    community_counts,
    community_densities,
    cor1_internal_density_bound,
    cor2_external_density_bound,
    product_community,
    thm7_product_counts,
)
from repro.kronecker.connectivity import (
    ConnectivityPrediction,
    predict_product_connectivity,
    weichsel_components,
)
from repro.kronecker.degrees import (
    product_degree_histogram,
    product_degree_summary,
)
from repro.kronecker.design import DesignTarget, design_product
from repro.kronecker.distances import (
    parity_distances,
    product_diameter,
    product_eccentricities,
    product_hop_distance,
)
from repro.kronecker.ground_truth import (
    FactorStats,
    edge_squares_product,
    edge_squares_product_reference,
    global_squares_product,
    squares_if_square_free_factors,
    vertex_squares_product,
    vertex_squares_product_reference,
)
from repro.kronecker.kernels import (
    EdgeIndex,
    edge_squares_batch,
    product_edge_squares_csr,
    vertex_squares_batch,
    vertex_squares_grid,
)
from repro.kronecker.multifactor import (
    ChainFactor,
    KroneckerChain,
    combine_stats,
    multi_kronecker_global_squares,
    multi_kronecker_stats,
)
from repro.kronecker.oracle import GroundTruthOracle
from repro.kronecker.product import KroneckerProduct, kron_graph, kron_power
from repro.kronecker.regions import (
    ground_truth_truss_region,
    triangle_free_edge_count,
    triangle_free_vertex_mask,
)
from repro.kronecker.sampling import sample_edges, sample_vertices
from repro.kronecker.spectral import (
    adjacency_spectrum,
    bipartite_spectrum_symmetry,
    product_spectral_radius,
    product_spectrum,
)
from repro.kronecker.streaming import (
    stream_chain_edges,
    stream_edges,
    streamed_connectivity_audit,
)
from repro.kronecker.triangles import (
    product_edge_triangles,
    product_global_triangles,
    product_vertex_triangles,
)
from repro.kronecker.wings import (
    certified_zero_wing_edges,
    chain_wings_at_edges,
    max_wing_upper_bound,
    wing_upper_bounds,
)

__all__ = [
    "Assumption",
    "BipartiteKronecker",
    "make_bipartite_product",
    "KroneckerProduct",
    "kron_graph",
    "kron_power",
    "ConnectivityPrediction",
    "predict_product_connectivity",
    "weichsel_components",
    "FactorStats",
    "vertex_squares_product",
    "vertex_squares_product_reference",
    "edge_squares_product",
    "edge_squares_product_reference",
    "global_squares_product",
    "squares_if_square_free_factors",
    "EdgeIndex",
    "edge_squares_batch",
    "product_edge_squares_csr",
    "vertex_squares_batch",
    "vertex_squares_grid",
    "edge_clustering_ground_truth",
    "psi_factor",
    "thm6_lower_bound",
    "BipartiteCommunity",
    "community_counts",
    "community_densities",
    "product_community",
    "thm7_product_counts",
    "cor1_internal_density_bound",
    "cor2_external_density_bound",
    "GroundTruthOracle",
    "stream_edges",
    "stream_chain_edges",
    "streamed_connectivity_audit",
    "sample_vertices",
    "sample_edges",
    "parity_distances",
    "product_hop_distance",
    "product_eccentricities",
    "product_diameter",
    "product_degree_histogram",
    "product_degree_summary",
    "product_vertex_triangles",
    "product_edge_triangles",
    "product_global_triangles",
    "combine_stats",
    "multi_kronecker_stats",
    "multi_kronecker_global_squares",
    "ChainFactor",
    "KroneckerChain",
    "adjacency_spectrum",
    "product_spectrum",
    "product_spectral_radius",
    "bipartite_spectrum_symmetry",
    "DesignTarget",
    "design_product",
    "wing_upper_bounds",
    "certified_zero_wing_edges",
    "chain_wings_at_edges",
    "max_wing_upper_bound",
    "triangle_free_vertex_mask",
    "triangle_free_edge_count",
    "ground_truth_truss_region",
]
