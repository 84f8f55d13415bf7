"""The paper's core contribution: bipartite Kronecker generation with
ground-truth 4-cycle and density statistics.

Layer map (paper section in parentheses):

* :mod:`~repro.kronecker.assumptions` -- Assumption 1(i)/(ii)
  validation and the :class:`BipartiteKronecker` certificate, which
  hands out its product as the chain ``[M, B]`` (§III-A).
* :mod:`~repro.kronecker.connectivity` -- Thms. 1-2 predictions and
  the Weichsel disconnection certificate (§III-A).
* :mod:`~repro.kronecker.multifactor` -- :class:`KroneckerChain`, the
  one product (Def. 4) and ground-truth engine: mixed-radix digits,
  Def. 8/9 over per-factor tables, batched vertex/edge queries, streamed
  row ranges and the one materializer.
* :mod:`~repro.kronecker.ground_truth` -- per-factor statistics and
  the 4-cycle formulas: Thm. 3/4 (vertices), Thm. 5 and our derived
  Assumption-1(ii) variant (edges), plus sublinear global counts
  (§III-B), read from the chain ``[M, B]``.
* :mod:`~repro.kronecker.kernels` -- the hash-table primitives behind
  every factor edge lookup.
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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Assumption": ".assumptions",
    "BipartiteKronecker": ".assumptions",
    "make_bipartite_product": ".assumptions",
    "ConnectivityPrediction": ".connectivity",
    "predict_product_connectivity": ".connectivity",
    "weichsel_components": ".connectivity",
    "vertex_squares_product": ".ground_truth",
    "edge_squares_product": ".ground_truth",
    "global_squares_product": ".ground_truth",
    "squares_if_square_free_factors": ".ground_truth",
    "edge_clustering_ground_truth": ".clustering",
    "psi_factor": ".clustering",
    "thm6_lower_bound": ".clustering",
    "BipartiteCommunity": ".community",
    "community_counts": ".community",
    "community_densities": ".community",
    "product_community": ".community",
    "thm7_product_counts": ".community",
    "cor1_internal_density_bound": ".community",
    "cor2_external_density_bound": ".community",
    "GroundTruthOracle": ".oracle",
    "stream_edges": ".streaming",
    "streamed_connectivity_audit": ".streaming",
    "sample_vertices": ".sampling",
    "sample_edges": ".sampling",
    "parity_distances": ".distances",
    "product_hop_distance": ".distances",
    "product_eccentricities": ".distances",
    "product_diameter": ".distances",
    "product_degree_histogram": ".degrees",
    "product_degree_summary": ".degrees",
    "product_vertex_triangles": ".triangles",
    "product_edge_triangles": ".triangles",
    "product_global_triangles": ".triangles",
    "ChainFactor": ".multifactor",
    "KroneckerChain": ".multifactor",
    "adjacency_spectrum": ".spectral",
    "product_spectrum": ".spectral",
    "product_spectral_radius": ".spectral",
    "bipartite_spectrum_symmetry": ".spectral",
    "DesignTarget": ".design",
    "design_product": ".design",
    "wing_upper_bounds": ".wings",
    "certified_zero_wing_edges": ".wings",
    "chain_wings_at_edges": ".wings",
    "max_wing_upper_bound": ".wings",
    "triangle_free_vertex_mask": ".regions",
    "triangle_free_edge_count": ".regions",
    "ground_truth_truss_region": ".regions",
})
