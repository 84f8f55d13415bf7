"""Assumption 1 validation and the :class:`BipartiteKronecker` handle.

The paper's two recipes for connected bipartite products (§III-A):

* **Assumption 1(i)** -- ``A`` non-bipartite, undirected, connected;
  ``B`` bipartite, undirected, connected; ``C = A ⊗ B``.
* **Assumption 1(ii)** -- ``A`` and ``B`` both bipartite, undirected,
  connected; ``C = (A + I_A) ⊗ B``.

Both require the factors *loop-free* on at least the right side so the
product is loop-free (§II-B); we additionally require the raw ``A``
loop-free in case (ii) (the ``+ I_A`` is the library's job, keeping
"the bipartite factor" and "the loop-augmented factor" distinct) and in
case (i) (the paper's formulas for case (i) assume no self loops in
either factor).

:class:`BipartiteKronecker` is the Assumption-1 certificate: it
validates its inputs once and keeps the factors, the effective left
factor ``M`` (``A`` or ``A + I_A``), the assumption and the product
bipartition.  Every product quantity comes from the one engine it hands
out, the 2-factor chain ``[M, B]`` (:attr:`BipartiteKronecker.chain`).
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.kronecker.multifactor import KroneckerChain

# The graph model is imported where a product is validated or built, so
# the served oracle, which needs only :class:`Assumption`, never loads it.
if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.bipartite import BipartiteGraph
    from repro.graphs.graph import Graph

__all__ = ["Assumption", "make_bipartite_product", "BipartiteKronecker"]


class Assumption(Enum):
    """Which §III-A recipe a product was built under."""

    #: Assumption 1(i): non-bipartite ``A``, ``C = A ⊗ B``.
    NON_BIPARTITE_FACTOR = "1(i)"
    #: Assumption 1(ii): bipartite ``A``, ``C = (A + I_A) ⊗ B``.
    SELF_LOOPS_FACTOR = "1(ii)"


def _validate_common(A: Graph, B: Graph, require_connected: bool) -> np.ndarray:
    """Shared checks; returns B's bipartition colours."""
    from repro.graphs.bipartite import bipartition
    from repro.graphs.connectivity import is_connected

    if A.has_self_loops:
        raise ValueError(
            "factor A must be loop-free; the library adds I_A itself under "
            "Assumption 1(ii) (pass the raw bipartite factor)"
        )
    if B.has_self_loops:
        raise ValueError("factor B must be loop-free (paper §II-B: products of a "
                         "loop-free factor are loop-free)")
    colors_b, cert_b = bipartition(B)
    if colors_b is None:
        raise ValueError(
            f"factor B must be bipartite; found odd cycle of length {cert_b.length()}"
        )
    if require_connected:
        if not is_connected(A):
            raise ValueError("factor A must be connected (Assumption 1)")
        if not is_connected(B):
            raise ValueError("factor B must be connected (Assumption 1)")
    return colors_b


def make_bipartite_product(
    A: Graph | BipartiteGraph,
    B: Graph | BipartiteGraph,
    assumption: Assumption,
    require_connected: bool = True,
) -> "BipartiteKronecker":
    """Validate factors against ``assumption`` and build the handle.

    ``require_connected=False`` relaxes the connectivity requirement --
    the ground-truth *formulas* hold regardless (only Thms. 1-2 need
    connectivity), and the paper's own §IV experiment uses the
    disconnected ``unicode`` factor.
    """
    from repro.graphs.bipartite import BipartiteGraph, bipartition

    A_graph = A.graph if isinstance(A, BipartiteGraph) else A
    B_bip = B if isinstance(B, BipartiteGraph) else None
    B_graph = B.graph if isinstance(B, BipartiteGraph) else B

    colors_b = _validate_common(A_graph, B_graph, require_connected)
    if B_bip is None:
        # A caller-supplied BipartiteGraph keeps its own part assignment
        # (on disconnected graphs the inferred 2-colouring is not unique).
        B_bip = BipartiteGraph(B_graph, colors_b.astype(bool))

    colors_a, cert_a = bipartition(A_graph)
    if assumption is Assumption.NON_BIPARTITE_FACTOR:
        if colors_a is not None:
            raise ValueError(
                "Assumption 1(i) requires factor A non-bipartite (no odd cycle found); "
                "use Assumption.SELF_LOOPS_FACTOR for bipartite A"
            )
        A_bip: Optional[BipartiteGraph] = None
    elif assumption is Assumption.SELF_LOOPS_FACTOR:
        if colors_a is None:
            raise ValueError(
                f"Assumption 1(ii) requires factor A bipartite; found odd cycle of "
                f"length {cert_a.length()}"
            )
        A_bip = A if isinstance(A, BipartiteGraph) else BipartiteGraph(A_graph, colors_a.astype(bool))
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown assumption {assumption!r}")
    return BipartiteKronecker(A_graph, B_bip, assumption, A_bipartite=A_bip)


class BipartiteKronecker:
    """A validated bipartite Kronecker product ``C = M ⊗ B``.

    ``M`` is ``A`` under Assumption 1(i) and ``A + I_A`` under 1(ii).
    :attr:`chain` is the product as the 2-factor chain ``[M, B]``; under
    1(ii) ``M`` carries loops, and the chain's Def. 8/9 forms reproduce
    Thm. 4 and the derived 1(ii) edge form exactly because only the
    *product* needs to be loop-free.  Do not construct directly -- use
    :func:`make_bipartite_product`, which performs the §III-A validation.
    """

    __slots__ = ("A", "B", "assumption", "A_bipartite", "M", "chain")

    def __init__(
        self,
        A: Graph,
        B: BipartiteGraph,
        assumption: Assumption,
        A_bipartite: Optional[BipartiteGraph] = None,
    ):
        self.A = A
        self.B = B
        self.assumption = assumption
        self.A_bipartite = A_bipartite
        if assumption is Assumption.SELF_LOOPS_FACTOR:
            self.M = A.with_all_self_loops()
        else:
            self.M = A
        self.chain = KroneckerChain.from_graphs([self.M, B.graph])

    # ------------------------------------------------------------------
    # Product structure
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.chain.n

    @property
    def m(self) -> int:
        return self.chain.m

    def materialize(self) -> Graph:
        """Materialize ``C`` as a concrete graph, whatever its size."""
        from repro.graphs.graph import Graph

        return Graph(self.chain.materialize(max_entries=self.chain.nnz))

    def materialize_bipartite(self) -> BipartiteGraph:
        """Materialize ``C`` together with its known bipartition."""
        from repro.graphs.bipartite import BipartiteGraph

        return BipartiteGraph(self.materialize(), self.product_part())

    def product_part(self) -> np.ndarray:
        """Bipartition mask of ``C``: vertex ``p = γ(i, k)`` lies in the
        part of its ``B``-coordinate ``k`` (§III opening argument)."""
        part_b = self.B.part
        return np.tile(part_b, self.A.n)

    @property
    def U(self) -> np.ndarray:
        """Product vertices whose B-coordinate is in ``U_B``."""
        return np.flatnonzero(~self.product_part()).astype(np.int64)

    @property
    def W(self) -> np.ndarray:
        """Product vertices whose B-coordinate is in ``W_B``."""
        return np.flatnonzero(self.product_part()).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BipartiteKronecker(assumption={self.assumption.value}, "
            f"n={self.n}, m={self.m})"
        )
