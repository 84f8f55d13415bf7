"""Graph generators: factors, stochastic baselines, and paper examples.

* :mod:`~repro.generators.classic` -- deterministic families (paths,
  cycles, stars, bicliques, grids, trees, ...) used as Kronecker
  factors and in unit tests.
* :mod:`~repro.generators.examples` -- the exact small factor trio of
  the paper's Fig. 1 plus their products.
* :mod:`~repro.generators.scale_free` -- small connected scale-free
  factor builders (preferential attachment, with bipartite and
  non-bipartite variants), the paper's "two small connected scale-free
  graphs".
* :mod:`~repro.generators.chung_lu` -- bipartite Chung-Lu with
  power-law expected degrees.
* :mod:`~repro.generators.rmat` -- R-MAT and bipartite R-MAT, the
  stochastic Kronecker baselines the paper contrasts against (§I).
* :mod:`~repro.generators.bter` -- a bipartite BTER-style generator
  (Aksoy-Kolda-Pinar [27]) with planted community blocks.
* :mod:`~repro.generators.konect_like` -- deterministic synthetic
  stand-in for the Konect ``unicode`` network used in §IV (see
  DESIGN.md §4 for the substitution rationale).
"""

from repro._lazy import lazy_exports
from repro.generators.rmat import rmat  # noqa: F401 - shadows its submodule (repro._lazy)

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "path_graph": ".classic",
    "cycle_graph": ".classic",
    "star_graph": ".classic",
    "complete_graph": ".classic",
    "complete_bipartite": ".classic",
    "grid_graph": ".classic",
    "balanced_tree": ".classic",
    "wheel_graph": ".classic",
    "fig1_top": ".examples",
    "fig1_bottom_left": ".examples",
    "fig1_bottom_right": ".examples",
    "fig1_trio": ".examples",
    "preferential_attachment": ".scale_free",
    "scale_free_bipartite_factor": ".scale_free",
    "scale_free_nonbipartite_factor": ".scale_free",
    "bipartite_chung_lu": ".chung_lu",
    "powerlaw_weights": ".chung_lu",
    "rmat": ".rmat",
    "bipartite_rmat": ".rmat",
    "bipartite_bter": ".bter",
    "konect_unicode_like": ".konect_like",
})
