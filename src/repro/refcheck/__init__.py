"""Derivation-independent verification of the ground-truth layer.

Every production path in :mod:`repro.kronecker` — fused kernels, legacy
``sp.kron`` term sums, the oracle, streaming — descends from the same
closed-walk algebra, so bit-identity checks between them cannot catch a
shared derivation bug.  This package supplies the missing referee and
the machinery around it:

* :mod:`repro.refcheck.brute` — brute-force counters by direct cycle
  enumeration on the materialized product (never imports the formulas);
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
    "MetamorphicViolation": ".metamorphic",
    "check_edge_deletion_monotonicity": ".metamorphic",
    "check_edge_sum_consistency": ".metamorphic",
    "check_factor_swap_vertex_symmetry": ".metamorphic",
    "check_relabel_invariance": ".metamorphic",
    "check_vertex_sum_consistency": ".metamorphic",
})
