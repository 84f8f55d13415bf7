"""Derivation-independent verification of the ground-truth layer.

Every production path in :mod:`repro.kronecker` — the formula entry
points, the oracle, streaming, shards — reads the one
:class:`~repro.kronecker.multifactor.KroneckerChain` engine, so
bit-identity checks between them cannot catch an engine bug.  This
package supplies the referees and the machinery around them:

* :mod:`repro.refcheck.brute` — brute-force counters by direct cycle
  enumeration on the materialized product (never imports the formulas);
* :mod:`repro.refcheck.printed` — the paper's printed Thm. 3/4/5
  coefficient forms as ``sp.kron`` term sums over per-factor counts,
  and the multi-factor ``combine_stats`` fold built on them;
* :mod:`repro.refcheck.corpus` — seeded random and adversarial factor
  corpora, plus multi-factor chains;
* :mod:`repro.refcheck.differ` — the differential engine behind
  ``repro verify``: every implementation vs. brute force, divergences
  reported as machine-readable witnesses;
* :mod:`repro.refcheck.metamorphic` — referee-free relations
  (relabeling invariance, factor-swap symmetry, edge-deletion
  monotonicity, tiling consistency) for the Hypothesis fleet.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "VerifyCase": ".corpus",
    "adversarial_cases": ".corpus",
    "chain_cases": ".corpus",
    "graph_from_spec": ".corpus",
    "random_cases": ".corpus",
    "PERTURBATIONS": ".differ",
    "DivergenceWitness": ".differ",
    "VerifyReport": ".differ",
    "resolve_assumptions": ".differ",
    "run_verification": ".differ",
    "combine_stats": ".printed",
    "edge_squares_product_reference": ".printed",
    "multi_kronecker_global_squares": ".printed",
    "multi_kronecker_stats": ".printed",
    "vertex_squares_product_reference": ".printed",
    "MetamorphicViolation": ".metamorphic",
    "check_edge_deletion_monotonicity": ".metamorphic",
    "check_edge_sum_consistency": ".metamorphic",
    "check_factor_swap_vertex_symmetry": ".metamorphic",
    "check_relabel_invariance": ".metamorphic",
    "check_vertex_sum_consistency": ".metamorphic",
})
