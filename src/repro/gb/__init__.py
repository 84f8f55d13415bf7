"""A GraphBLAS-style sparse linear algebra substrate.

The paper expresses every ground-truth formula in the language of the
GraphBLAS (Kronecker products, Hadamard products, matrix powers,
diagonal extraction, reductions).  This subpackage implements the subset
of the GraphBLAS C API (v1.3) that those formulas need, in pure
Python/numpy with CSR storage:

* :class:`~repro.gb.matrix.GBMatrix` / :class:`~repro.gb.vector.GBVector`
  -- opaque sparse containers.
* :mod:`~repro.gb.types` -- ``BinaryOp`` / ``Monoid`` / ``Semiring``
  algebra descriptors.
* :mod:`~repro.gb.semirings` -- the standard semirings
  (``PLUS_TIMES``, ``LOR_LAND``, ``MIN_PLUS``, ``MAX_TIMES``, ...).
* :mod:`~repro.gb.ops` -- ``mxm``, ``mxv``, ``vxm``, ``ewise_add``,
  ``ewise_mult`` (Hadamard), ``kron``, ``reduce_rows``,
  ``reduce_scalar``, ``apply``, ``select``, ``extract``, ``transpose``,
  ``diag`` -- each with optional structural masks and accumulators.

Design notes (per the HPC guides): everything is vectorised numpy under
the hood; the ``PLUS_TIMES`` and boolean semirings lower onto scipy's
compiled sparse kernels, and only genuinely non-standard semirings
(``MIN_PLUS`` etc.) fall back to a row-blocked numpy kernel.  No
operation mutates its inputs; masks are applied before materializing
results so masked products never allocate the unmasked intermediate
pattern beyond one CSR temporary.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "GBMatrix": ".matrix",
    "GBVector": ".vector",
    "BinaryOp": ".types",
    "Monoid": ".types",
    "Semiring": ".types",
    "UnaryOp": ".types",
    "mxm": ".ops",
    "mxv": ".ops",
    "vxm": ".ops",
    "ewise_add": ".ops",
    "ewise_mult": ".ops",
    "kron": ".ops",
    "reduce_rows": ".ops",
    "reduce_scalar": ".ops",
    "apply": ".ops",
    "select": ".ops",
    "extract": ".ops",
    "transpose": ".ops",
    "diag": ".ops",
    "PLUS_TIMES": ".semirings",
    "LOR_LAND": ".semirings",
    "MIN_PLUS": ".semirings",
    "MAX_TIMES": ".semirings",
    "MIN_TIMES": ".semirings",
    "MAX_PLUS": ".semirings",
    "MIN_MAX": ".semirings",
    "PLUS_PAIR": ".semirings",
})
