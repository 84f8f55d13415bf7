"""Shared low-level utilities for the :mod:`repro` library.

This subpackage holds helpers that every other layer builds on:

* :mod:`repro.utils.validation` -- argument checking helpers that raise
  uniform, descriptive errors.
* :mod:`repro.utils.rng` -- seeded random-number-generator plumbing so
  every stochastic generator in the library is reproducible.

Wall-clock timing lives in :mod:`repro.obs` (:class:`~repro.obs.span.Span`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "as_generator": ".rng",
    "spawn_generators": ".rng",
    "check_integer": ".validation",
    "check_nonnegative": ".validation",
    "check_positive": ".validation",
    "check_probability": ".validation",
    "check_square": ".validation",
    "check_symmetric": ".validation",
})
