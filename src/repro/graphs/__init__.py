"""Graph substrate: containers, structure tests, traversal, statistics.

Everything the Kronecker layer and the validation analytics need to talk
about graphs lives here:

* :class:`~repro.graphs.graph.Graph` -- immutable undirected graph over
  a canonical CSR adjacency matrix (self loops allowed).
* :class:`~repro.graphs.bipartite.BipartiteGraph` and
  :func:`~repro.graphs.bipartite.bipartition` -- the two-colouring
  machinery of the paper's Def. 7, including odd-cycle certificates.
* :mod:`~repro.graphs.connectivity` -- connected components (vectorised
  BFS) and a union-find for edge streams.
* :mod:`~repro.graphs.traversal` -- BFS levels, hop distances,
  eccentricity / diameter / radius.
* :mod:`~repro.graphs.degree` -- degree vectors, distributions and
  heavy-tail diagnostics.
* :mod:`~repro.graphs.degeneracy` -- k-core peeling and the degeneracy
  number (the paper's ``δ(G)``, §I).
* :mod:`~repro.graphs.io` -- edge-list and Matrix-Market-subset I/O.
"""

from repro._lazy import lazy_exports
from repro.graphs.degeneracy import degeneracy  # noqa: F401 - shadows its submodule (repro._lazy)

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Graph": ".graph",
    "BipartiteGraph": ".bipartite",
    "bipartition": ".bipartite",
    "is_bipartite": ".bipartite",
    "connected_components": ".connectivity",
    "is_connected": ".connectivity",
    "UnionFind": ".connectivity",
    "bfs_levels": ".traversal",
    "hop_distance": ".traversal",
    "eccentricity": ".traversal",
    "eccentricities": ".traversal",
    "diameter": ".traversal",
    "radius": ".traversal",
    "degree_distribution": ".degree",
    "degree_statistics": ".degree",
    "powerlaw_slope": ".degree",
    "core_decomposition": ".degeneracy",
    "degeneracy": ".degeneracy",
    "read_edge_list": ".io",
    "write_edge_list": ".io",
    "read_matrix_market": ".io",
    "write_matrix_market": ".io",
})
