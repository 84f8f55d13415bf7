"""``repro.core`` -- alias namespace for the paper's primary contribution.

The project layout names the core subpackage :mod:`repro.kronecker`
(the contribution *is* the bipartite Kronecker ground-truth machinery);
this module re-exports it under the generic ``repro.core`` name so
downstream code written against either import path works:

    from repro.core import make_bipartite_product      # equivalent
    from repro.kronecker import make_bipartite_product # equivalent
"""

from repro._lazy import lazy_exports
from repro.kronecker import __all__ as _kronecker_all

__all__, __getattr__, __dir__ = lazy_exports(
    __name__, dict.fromkeys(_kronecker_all, "repro.kronecker")
)
