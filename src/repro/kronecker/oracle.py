"""The ground-truth oracle: local queries from sublinear memory.

§I's cost model: with a Kronecker formula ``f(C) = Σ_s g_s(A) ⊗ h_s(B)``
a data structure of size ``O(|E_C|^{1/2})`` (i.e. factor-sized) yields
ground truth at query time.  :class:`GroundTruthOracle` is that data
structure: it holds the product's 2-factor chain ``[M, B]``
(:attr:`~repro.kronecker.assumptions.BipartiteKronecker.chain`) and
answers

* ``degrees(ps)``                          ``Π d``
* ``squares_at_vertices(ps)`` (Thm. 3/4)   Def. 8 over the chain
* ``squares_at_edges(ps, qs)`` (Thm. 5/(ii)) Def. 9 over the chain
* ``clustering_at_edges(ps, qs)`` (Def. 10)
* ``wings_at_edges(ps, qs)`` (Rem. 1)
* ``global_squares()``                      exact, sublinear

without ever materializing the product.  Every query is a batched
digit decomposition on the chain's factor tables (one gather per factor
and, for edges, one hash probe per factor); the scalar methods are
batches of one.  Invalid edges are *masked* or raised on per
``on_invalid``.  The benchmarks ``bench_groundtruth_vs_direct`` and
``bench_kernels`` quantify the gaps to direct counting and to the
scalar query loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.kronecker.assumptions import Assumption
from repro.kronecker.multifactor import KroneckerChain
from repro.obs import get_metrics, get_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.kronecker.assumptions import BipartiteKronecker

__all__ = ["GroundTruthOracle", "edge_answers"]


class GroundTruthOracle:
    """Per-vertex / per-edge ground truth for a bipartite product.

    The oracle is its chain ``[M, B]``, the right factor's bipartition
    and the assumption.  ``GroundTruthOracle(bk)`` takes them from a
    :class:`BipartiteKronecker`; :func:`repro.serve.artifact.load_oracle`
    rebuilds them from stored chain tables.  Queries touch only
    factor-sized arrays.  Product shape: ``n`` vertices, ``m`` edges,
    ``n_b`` right-factor vertices (``p = i · n_b + k``).
    """

    def __init__(self, bk: BipartiteKronecker):
        self._setup(bk.chain, bk.B.part, bk.assumption)

    def _setup(self, chain: KroneckerChain, part_b: np.ndarray, assumption: Assumption) -> None:
        if len(chain.factors) != 2:
            raise ValueError(f"an oracle serves a 2-factor chain, got {len(chain.factors)}")
        self.chain = chain
        self.part_b = np.asarray(part_b, dtype=bool)
        self.assumption = assumption
        self.n_b = chain.factors[1].n
        self.n = chain.n
        # C = M ⊗ B is loop-free, so every edge is two stored entries.
        self.m = chain.nnz // 2
        with get_tracer().span("oracle.setup", n=self.n, m=self.m) as sp:
            sp.set(stored_entries=self.memory_footprint_entries())
        self._max_wing_cache: int | None = None
        # Bound once at setup: a no-op counter unless obs is enabled
        # when the oracle is built, so queries stay allocation-free.
        self._queries = get_metrics().counter("oracle_queries_total")

    # ------------------------------------------------------------------
    # Vertex queries
    # ------------------------------------------------------------------

    def split(self, p: int) -> tuple[int, int]:
        """Product vertex -> factor pair ``(i, k)``."""
        if not 0 <= p < self.n:
            raise IndexError(f"product vertex {p} out of range [0, {self.n})")
        return divmod(p, self.n_b)

    def degree(self, p: int) -> int:
        """Degree of product vertex ``p``: ``d_M(i) * d_B(k)``."""
        return int(self.degrees([p])[0])

    def squares_at_vertex(self, p: int) -> int:
        """Ground-truth ``s_C(p)`` (Thm. 3 / sign-corrected Thm. 4)."""
        return int(self.squares_at_vertices([p])[0])

    def degrees(self, ps) -> np.ndarray:
        """Batched :meth:`degree`: one vectorized pass over ``ps``.

        Raises ``IndexError`` if any index is out of range (checked once
        for the whole batch).
        """
        out = self.chain.degrees(ps)
        self._queries.inc(out.size)
        return out

    def squares_at_vertices(self, ps) -> np.ndarray:
        """Batched :meth:`squares_at_vertex`: Def. 8 over the chain."""
        out = self.chain.vertex_squares(ps)
        self._queries.inc(out.size)
        return out

    # ------------------------------------------------------------------
    # Edge queries
    # ------------------------------------------------------------------

    def has_edge(self, p: int, q: int) -> bool:
        """Whether ``(p, q)`` is an edge of the product."""
        return bool(self.has_edges([p], [q])[0])

    def squares_at_edge(self, p: int, q: int) -> int:
        """Ground-truth ``◇_C(p, q)``; ``ValueError`` on a non-edge.

        Def. 9 on the chain ``[M, B]``, which is Thm. 5 under
        Assumption 1(i) and the derived 1(ii) form otherwise::

            ◇_pq = 1 + W3_M(i,j) · W3_B(k,l) − d_M(i) d_B(k) − d_M(j) d_B(l)
        """
        return int(self.squares_at_edges([p], [q])[0])

    def clustering_at_edge(self, p: int, q: int) -> float:
        """Ground-truth ``Γ_C(p, q)`` (Def. 10).

        Raises on non-edges and on edges with an endpoint of degree 1
        (outside Def. 10's domain).
        """
        dia = self.squares_at_edge(p, q)
        dp, dq = self.degree(p), self.degree(q)
        if dp < 2 or dq < 2:
            raise ValueError("clustering coefficient needs both endpoint degrees >= 2")
        return dia / ((dp - 1) * (dq - 1))

    def has_edges(self, ps, qs) -> np.ndarray:
        """Batched :meth:`has_edge`: boolean mask per ``(p, q)`` pair."""
        _, valid = self.chain.edge_squares(ps, qs)
        self._queries.inc(valid.size)
        return valid

    def squares_at_edges(self, ps, qs, on_invalid: str = "raise") -> np.ndarray:
        """Batched :meth:`squares_at_edge`.

        ``on_invalid`` controls non-edges in the batch:

        * ``"raise"`` (default, matching the scalar method): raise
          ``ValueError`` naming the first non-edge pair;
        * ``"mask"``: report ``-1`` at non-edge slots instead, so
          millions of speculative queries cost one vectorized pass
          (counts are never negative, so the sentinel is unambiguous).
        """
        return self._edge_answers(ps, qs, on_invalid)

    def wings_at_edges(self, ps, qs, on_invalid: str = "raise") -> np.ndarray:
        """Batched Rem. 1 wing upper bounds per product edge.

        The wing (bitruss) number of an edge never exceeds its initial
        butterfly support, so the answer *is* the exact Thm. 5 /
        derived-1(ii) support -- bit-identical to
        :meth:`squares_at_edges`, under the same ``on_invalid``
        contract.  Support-0 answers certify wing number 0.
        """
        return self._edge_answers(ps, qs, on_invalid)

    def _edge_answers(self, ps, qs, on_invalid: str) -> np.ndarray:
        out = edge_answers(self.chain, ps, qs, on_invalid)
        self._queries.inc(out.size)
        return out

    def max_wing_bound(self) -> int:
        """Scalar Rem. 1 bound: the product's maximum wing number never
        exceeds its maximum edge support.

        Streams every product entry with its Def. 9 support in bounded
        blocks and keeps the maximum -- O(|E_C|) work, O(block) memory,
        memoized after the first call.
        """
        if self._max_wing_cache is None:
            self._queries.inc()
            best = 0
            for _, _, supports in self.chain.stream_rows(0, self.n, attach_ground_truth=True):
                if supports.size:
                    best = max(best, int(supports.max()))
            self._max_wing_cache = best
        return self._max_wing_cache

    def clustering_at_edges(self, ps, qs) -> np.ndarray:
        """Batched :meth:`clustering_at_edge` with NaN masking.

        Returns float64 ``Γ_C`` per pair; ``NaN`` where ``(p, q)`` is
        not a product edge or an endpoint degree is below 2 (outside
        Def. 10's domain) -- mask semantics instead of the scalar
        method's raise, matching :meth:`squares_at_edges`'s
        ``on_invalid="mask"`` contract.  This is the serve layer's
        clustering path.
        """
        dia = self.squares_at_edges(ps, qs, on_invalid="mask")
        dp = self.degrees(ps)
        dq = self.degrees(qs)
        valid = (dia >= 0) & (dp >= 2) & (dq >= 2)
        denom = (dp - 1).astype(np.float64)
        denom *= dq - 1
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(valid, dia / denom, np.nan)

    # ------------------------------------------------------------------
    # Global queries
    # ------------------------------------------------------------------

    def global_squares(self) -> int:
        """Total 4-cycles of the product (sublinear, exact Python int)."""
        self._queries.inc()
        return self.chain.global_squares()

    def memory_footprint_entries(self) -> int:
        """Stored entries across both factors' chain tables.

        The §I claim is ``O(|E_C|^{1/2})`` storage; this reports the
        actual count (``d``, ``w2``, ``cw4`` and ``indptr`` per vertex;
        ``indices`` and ``w3`` per stored entry) so benches can print
        measured-vs-claimed.
        """
        return sum(4 * f.n + 1 + 2 * f.nnz for f in self.chain.factors)

    def memory_footprint_bytes(self) -> int:
        """Actual dtype-aware bytes held by the oracle.

        Unlike :meth:`memory_footprint_entries` (the paper's abstract
        entry count) this sums ``.nbytes`` over every stored array: the
        chain's factor tables, the query tables it has built so far
        (vertex stacks, edge hash tables) and the bipartition mask --
        so benches report measured-vs-claimed storage honestly.
        """
        chain = self.chain
        arrays = [self.part_b]
        for f in chain.factors:
            arrays += [f.indptr, f.indices, f.d, f.w2, f.cw4, f.w3]
        arrays += chain._vertex_stacks or []
        for table_keys, table_vals, _ in chain._edge_tables or []:
            arrays += [table_keys, table_vals]
        return sum(a.nbytes for a in arrays)


def edge_answers(chain: KroneckerChain, ps, qs, on_invalid: str = "raise") -> np.ndarray:
    """Def. 9 supports of ``chain`` at ``(ps, qs)`` under the
    ``on_invalid`` contract: ``"raise"`` names the first non-edge pair
    in a ``ValueError``, ``"mask"`` reports ``-1`` there (counts are
    never negative, so the sentinel is unambiguous)."""
    if on_invalid not in ("raise", "mask"):
        raise ValueError(f"on_invalid must be 'raise' or 'mask', got {on_invalid!r}")
    values, valid = chain.edge_squares(ps, qs)
    if valid.all():
        return values
    bad = np.flatnonzero(~valid)
    if on_invalid == "raise":
        p = int(np.asarray(ps).reshape(-1)[bad[0]])
        q = int(np.asarray(qs).reshape(-1)[bad[0]])
        raise ValueError(f"({p}, {q}) is not an edge of the product")
    # ``values`` arrives zeroed on invalid slots, so the sentinel is a
    # masked in-place write, not an np.where.
    values[bad] = -1
    return values
