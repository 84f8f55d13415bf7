"""The ground-truth oracle: local queries from sublinear memory.

§I's cost model: with a Kronecker formula ``f(C) = Σ_s g_s(A) ⊗ h_s(B)``
a data structure of size ``O(|E_C|^{1/2})`` (i.e. factor-sized) yields
ground truth at query time.  :class:`GroundTruthOracle` is that data
structure: it precomputes :class:`~repro.kronecker.ground_truth.FactorStats`
for both factors once and then answers

* ``degree(p)``                            in O(1)
* ``squares_at_vertex(p)``  (Thm. 3/4)      in O(1)
* ``squares_at_edge(p, q)`` (Thm. 5/(ii))   in O(log d) (edge lookup)
* ``clustering_at_edge(p, q)`` (Def. 10)    in O(log d)
* ``global_squares()``                      in O(1) after setup

without ever materializing the product.  The scalar methods have
batched counterparts -- :meth:`~GroundTruthOracle.degrees`,
:meth:`~GroundTruthOracle.squares_at_vertices`,
:meth:`~GroundTruthOracle.squares_at_edges` -- that answer millions of
queries per second through the fused kernels
(:mod:`repro.kronecker.kernels`), with invalid-edge *masking* instead
of raise-per-query.  The benchmarks ``bench_groundtruth_vs_direct``
and ``bench_kernels`` quantify the gaps to direct counting and to the
scalar query loop.
"""

from __future__ import annotations

import numpy as np

from repro.kronecker import kernels
from repro.kronecker.assumptions import Assumption, BipartiteKronecker
from repro.kronecker.ground_truth import FactorStats, _vertex_terms
from repro.obs import get_metrics, get_tracer

__all__ = ["GroundTruthOracle"]


class GroundTruthOracle:
    """Per-vertex / per-edge ground truth for a bipartite product.

    Build once from a :class:`BipartiteKronecker`; queries then touch
    only factor-sized arrays.
    """

    def __init__(self, bk: BipartiteKronecker):
        self.bk = bk
        with get_tracer().span("oracle.setup", n=bk.n, m=bk.m) as sp:
            self.stats_a, self.stats_b = bk.factor_stats()
            self.n_b = bk.B.graph.n
            self._terms = _vertex_terms(self.stats_a, self.stats_b, bk.assumption)
            self._with_loops = bk.assumption is Assumption.SELF_LOOPS_FACTOR
            # Effective left-factor degree (d_A or d_A + 1).
            self._d_m = self.stats_a.d + (1 if self._with_loops else 0)
            # Stacked vertex-term matrices for the batched kernels.
            self._term_matrices = kernels.vertex_term_matrices(
                self.stats_a, self.stats_b, bk.assumption
            )
            sp.set(stored_entries=self.memory_footprint_entries())
        self._max_wing_cache: int | None = None
        # Bound once at setup: a no-op counter unless obs is enabled
        # when the oracle is built, so queries stay allocation-free.
        self._queries = get_metrics().counter("oracle_queries_total")

    # ------------------------------------------------------------------
    # Artifact export hooks (repro.serve)
    # ------------------------------------------------------------------

    def artifact_state(self) -> tuple[FactorStats, FactorStats, np.ndarray, Assumption]:
        """Everything a persistent artifact needs to rebuild this oracle:
        ``(stats_a, stats_b, part_b, assumption)``.

        :func:`repro.serve.artifact.save_oracle` persists exactly this
        state; :meth:`from_factor_stats` consumes it.
        """
        return self.stats_a, self.stats_b, self.bk.B.part, self.bk.assumption

    @classmethod
    def from_factor_stats(
        cls,
        stats_a: FactorStats,
        stats_b: FactorStats,
        part_b: np.ndarray,
        assumption: Assumption,
    ) -> "GroundTruthOracle":
        """Rebuild an oracle from persisted factor statistics.

        The inverse of :meth:`artifact_state`: reconstructs the factor
        graphs from the stored adjacencies and pre-fills the product
        handle's statistics cache, so none of the sparse ``A²`` products
        behind :class:`~repro.kronecker.ground_truth.FactorStats` are
        recomputed.  Assumption-1 *validation* is also skipped -- the
        artifact was built from an already-validated product (and the
        checksum layer guards against tampering).

        The factor adjacencies are wrapped via
        :meth:`~repro.graphs.graph.Graph.from_canonical_csr` -- no
        re-canonicalization copy -- so when the stats come from
        ``load_oracle(..., mmap=True)`` the oracle's big arrays stay
        page-cache-backed memmaps shared across processes.
        """
        from repro.graphs.bipartite import BipartiteGraph
        from repro.graphs.graph import Graph

        A = Graph.from_canonical_csr(stats_a.adj)
        B = BipartiteGraph(Graph.from_canonical_csr(stats_b.adj), np.asarray(part_b, dtype=bool))
        bk = BipartiteKronecker(A, B, assumption)
        bk._stats_cache["stats"] = (stats_a, stats_b)
        return cls(bk)

    # ------------------------------------------------------------------
    # Index plumbing
    # ------------------------------------------------------------------

    def split(self, p: int) -> tuple[int, int]:
        """Product vertex -> factor pair ``(i, k)``."""
        if not 0 <= p < self.bk.n:
            raise IndexError(f"product vertex {p} out of range [0, {self.bk.n})")
        return divmod(p, self.n_b)

    def _split_batch(self, ps, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`split` with one range check for the batch."""
        ps = np.asarray(ps, dtype=np.int64)
        if ps.ndim != 1:
            raise ValueError(f"{name} must be a 1-D index array, got shape {ps.shape}")
        if ps.size and (int(ps.min()) < 0 or int(ps.max()) >= self.bk.n):
            bad = ps[(ps < 0) | (ps >= self.bk.n)][0]
            raise IndexError(f"product vertex {int(bad)} out of range [0, {self.bk.n})")
        return np.divmod(ps, self.n_b)

    # ------------------------------------------------------------------
    # Vertex queries
    # ------------------------------------------------------------------

    def degree(self, p: int) -> int:
        """Degree of product vertex ``p``: ``d_M(i) * d_B(k)``."""
        self._queries.inc()
        i, k = self.split(p)
        return int(self._d_m[i] * self.stats_b.d[k])

    def squares_at_vertex(self, p: int) -> int:
        """Ground-truth ``s_C(p)`` (Thm. 3 / sign-corrected Thm. 4)."""
        self._queries.inc()
        i, k = self.split(p)
        acc = 0
        for sign, left, right in self._terms:
            acc += sign * int(left[i]) * int(right[k])
        half, rem = divmod(acc, 2)
        assert rem == 0
        return half

    # ------------------------------------------------------------------
    # Batched vertex queries (fused kernels)
    # ------------------------------------------------------------------

    def degrees(self, ps) -> np.ndarray:
        """Batched :meth:`degree`: one vectorized pass over ``ps``.

        Raises ``IndexError`` if any index is out of range (checked once
        for the whole batch).
        """
        i, k = self._split_batch(ps, "ps")
        self._queries.inc(i.size)
        out = np.take(self._d_m, i, mode="clip")
        out *= np.take(self.stats_b.d, k, mode="clip")
        return out

    def squares_at_vertices(self, ps) -> np.ndarray:
        """Batched :meth:`squares_at_vertex` via the fused vertex kernel.

        Millions of queries per second instead of one per Python call;
        values are identical to the scalar loop (exact int64 math).
        """
        ps = np.asarray(ps, dtype=np.int64)
        if ps.ndim != 1:
            raise ValueError(f"ps must be a 1-D index array, got shape {ps.shape}")
        self._queries.inc(ps.size)
        return kernels.vertex_squares_codes(
            self.stats_a,
            self.stats_b,
            self.bk.assumption,
            ps,
            term_matrices=self._term_matrices,
        )

    # ------------------------------------------------------------------
    # Edge queries
    # ------------------------------------------------------------------

    def _factor_edge_stats(self, stats: FactorStats, i: int, j: int):
        """``(is_edge, diamond_ij)`` for a factor edge lookup."""
        row = stats.adj.indices[stats.adj.indptr[i] : stats.adj.indptr[i + 1]]
        pos = np.searchsorted(row, j)
        if pos >= row.size or row[pos] != j:
            return False, 0
        drow = stats.diamond.indices[stats.diamond.indptr[i] : stats.diamond.indptr[i + 1]]
        dpos = np.searchsorted(drow, j)
        if dpos < drow.size and drow[dpos] == j:
            return True, int(stats.diamond.data[stats.diamond.indptr[i] + dpos])
        return True, 0

    def has_edge(self, p: int, q: int) -> bool:
        """Whether ``(p, q)`` is an edge of the product."""
        self._queries.inc()
        i, k = self.split(p)
        j, ell = self.split(q)
        b_edge, _ = self._factor_edge_stats(self.stats_b, k, ell)
        if not b_edge:
            return False
        if self._with_loops and i == j:
            return True
        a_edge, _ = self._factor_edge_stats(self.stats_a, i, j)
        return a_edge

    def squares_at_edge(self, p: int, q: int) -> int:
        """Ground-truth ``◇_C(p, q)`` via the point-wise formulas.

        Assumption 1(i) (Thm. 5's expansion)::

            ◇_pq = 1 + (◇_ij + d_i + d_j - 1)(◇_kl + d_k + d_l - 1)
                     - d_i d_k - d_j d_l

        Assumption 1(ii), cross edges (``(i,j) ∈ E_A``)::

            ◇_pq = 1 + (◇_ij + d_i + d_j + 2)(◇_kl + d_k + d_l - 1)
                     - (d_i + 1) d_k - (d_j + 1) d_l

        Assumption 1(ii), loop-block edges (``i = j``)::

            ◇_pq = 1 + (3 d_i + 1)(◇_kl + d_k + d_l - 1)
                     - (d_i + 1)(d_k + d_l)

        Raises ``ValueError`` when ``(p, q)`` is not a product edge.
        """
        self._queries.inc()
        i, k = self.split(p)
        j, ell = self.split(q)
        b_edge, dia_b = self._factor_edge_stats(self.stats_b, k, ell)
        if not b_edge:
            raise ValueError(f"({p}, {q}) is not an edge of the product (no B edge ({k}, {ell}))")
        d_k, d_l = int(self.stats_b.d[k]), int(self.stats_b.d[ell])
        w3_b = dia_b + d_k + d_l - 1
        d_i, d_j = int(self.stats_a.d[i]), int(self.stats_a.d[j])
        if self._with_loops and i == j:
            return 1 + (3 * d_i + 1) * w3_b - (d_i + 1) * (d_k + d_l)
        a_edge, dia_a = self._factor_edge_stats(self.stats_a, i, j)
        if not a_edge:
            raise ValueError(f"({p}, {q}) is not an edge of the product (no A edge ({i}, {j}))")
        if self._with_loops:
            return (
                1
                + (dia_a + d_i + d_j + 2) * w3_b
                - (d_i + 1) * d_k
                - (d_j + 1) * d_l
            )
        return 1 + (dia_a + d_i + d_j - 1) * w3_b - d_i * d_k - d_j * d_l

    def clustering_at_edge(self, p: int, q: int) -> float:
        """Ground-truth ``Γ_C(p, q)`` (Def. 10).

        Raises on non-edges and on edges with an endpoint of degree 1
        (outside Def. 10's domain).
        """
        self._queries.inc()
        dia = self.squares_at_edge(p, q)
        dp, dq = self.degree(p), self.degree(q)
        if dp < 2 or dq < 2:
            raise ValueError("clustering coefficient needs both endpoint degrees >= 2")
        return dia / ((dp - 1) * (dq - 1))

    # ------------------------------------------------------------------
    # Batched edge queries (fused kernels)
    # ------------------------------------------------------------------

    def has_edges(self, ps, qs) -> np.ndarray:
        """Batched :meth:`has_edge`: boolean mask per ``(p, q)`` pair."""
        i, k = self._split_batch(ps, "ps")
        j, ell = self._split_batch(qs, "qs")
        if i.shape != j.shape:
            raise ValueError(f"ps and qs must match in shape: {i.shape} vs {j.shape}")
        self._queries.inc(i.size)
        _, valid = kernels.edge_squares_batch(
            self.stats_a, self.stats_b, self.bk.assumption, i, j, k, ell
        )
        return valid

    def squares_at_edges(self, ps, qs, on_invalid: str = "raise") -> np.ndarray:
        """Batched :meth:`squares_at_edge` via the fused edge kernel.

        ``on_invalid`` controls non-edges in the batch:

        * ``"raise"`` (default, matching the scalar method): raise
          ``ValueError`` naming the first non-edge pair;
        * ``"mask"``: report ``-1`` at non-edge slots instead, so
          millions of speculative queries cost one vectorized pass
          (counts are never negative, so the sentinel is unambiguous).
        """
        if on_invalid not in ("raise", "mask"):
            raise ValueError(f"on_invalid must be 'raise' or 'mask', got {on_invalid!r}")
        i, k = self._split_batch(ps, "ps")
        j, ell = self._split_batch(qs, "qs")
        if i.shape != j.shape:
            raise ValueError(f"ps and qs must match in shape: {i.shape} vs {j.shape}")
        self._queries.inc(i.size)
        values, valid = kernels.edge_squares_batch(
            self.stats_a, self.stats_b, self.bk.assumption, i, j, k, ell
        )
        if valid.all():
            return values
        if on_invalid == "raise":
            bad = int(np.flatnonzero(~valid)[0])
            ps = np.asarray(ps, dtype=np.int64)
            qs = np.asarray(qs, dtype=np.int64)
            raise ValueError(
                f"({int(ps[bad])}, {int(qs[bad])}) is not an edge of the product"
            )
        return np.where(valid, values, -1)

    def wings_at_edges(self, ps, qs, on_invalid: str = "raise") -> np.ndarray:
        """Batched Rem. 1 wing upper bounds per product edge.

        The wing (bitruss) number of an edge never exceeds its initial
        butterfly support, so the answer *is* the exact Thm. 5 /
        derived-1(ii) support -- bit-identical to
        :meth:`squares_at_edges` -- reported under the wing-query
        contract: ``on_invalid="raise"`` names the first non-edge pair,
        ``"mask"`` reports the ``-1`` sentinel there (supports are
        never negative).  Support-0 answers certify wing number 0.
        """
        if on_invalid not in ("raise", "mask"):
            raise ValueError(f"on_invalid must be 'raise' or 'mask', got {on_invalid!r}")
        i, k = self._split_batch(ps, "ps")
        j, ell = self._split_batch(qs, "qs")
        if i.shape != j.shape:
            raise ValueError(f"ps and qs must match in shape: {i.shape} vs {j.shape}")
        self._queries.inc(i.size)
        values, valid = kernels.edge_squares_batch(
            self.stats_a, self.stats_b, self.bk.assumption, i, j, k, ell
        )
        if valid.all():
            return values
        if on_invalid == "raise":
            bad = int(np.flatnonzero(~valid)[0])
            ps = np.asarray(ps, dtype=np.int64)
            qs = np.asarray(qs, dtype=np.int64)
            raise ValueError(
                f"({int(ps[bad])}, {int(qs[bad])}) is not an edge of the product"
            )
        # ``values`` arrives zeroed on invalid slots, so the sentinel is
        # a masked in-place write, not an np.where.
        values[~valid] = -1
        return values

    def max_wing_bound(self) -> int:
        """Scalar Rem. 1 bound: the product's maximum wing number never
        exceeds its maximum edge support.

        Streams every product edge (effective ``M`` entries crossed
        with ``B`` entries) through the fused edge kernel in bounded
        blocks and reduces each block's valid maximum -- O(|E_C|)
        work, O(block) memory, memoized after the first call.
        """
        if self._max_wing_cache is None:
            self._queries.inc()
            idx_a = self.stats_a.edge_index
            idx_b = self.stats_b.edge_index
            m_rows, m_cols = idx_a.rows, idx_a.cols
            if self._with_loops:
                diag = np.arange(self.stats_a.n, dtype=np.int64)
                m_rows = np.concatenate((m_rows, diag))
                m_cols = np.concatenate((m_cols, diag))
            best = 0
            nb = idx_b.rows.size
            if nb and m_rows.size:
                per = max(1, (1 << 18) // nb)
                for s in range(0, m_rows.size, per):
                    e = min(s + per, m_rows.size)
                    i = np.repeat(m_rows[s:e], nb)
                    j = np.repeat(m_cols[s:e], nb)
                    k = np.tile(idx_b.rows, e - s)
                    ell = np.tile(idx_b.cols, e - s)
                    values, valid = kernels.edge_squares_batch(
                        self.stats_a, self.stats_b, self.bk.assumption, i, j, k, ell
                    )
                    if valid.any():
                        best = max(best, int(values[valid].max()))
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
        """Total 4-cycles of the product (sublinear)."""
        self._queries.inc()
        acc = 0
        for sign, left, right in self._terms:
            acc += sign * int(left.sum()) * int(right.sum())
        return acc // 2 // 4

    def memory_footprint_entries(self) -> int:
        """Stored entries across all factor statistics.

        The §I claim is ``O(|E_C|^{1/2})`` storage; this reports the
        actual count so benches can print measured-vs-claimed.
        """
        per_factor = 0
        for stats in (self.stats_a, self.stats_b):
            per_factor += 4 * stats.n  # d, w2, s, cw4
            per_factor += stats.diamond.nnz + stats.adj.nnz
        return per_factor

    def memory_footprint_bytes(self) -> int:
        """Actual dtype-aware bytes held by the oracle.

        Unlike :meth:`memory_footprint_entries` (the paper's abstract
        entry count) this sums ``.nbytes`` over every stored array:
        both factors' statistics *and* derived caches that have been
        materialized (the :class:`~repro.kronecker.kernels.EdgeIndex`
        per factor), plus the oracle's own precomputed arrays --
        so benches report measured-vs-claimed storage honestly.
        """
        total = 0
        for stats in (self.stats_a, self.stats_b):
            total += sum(a.nbytes for a in kernels.stats_arrays(stats))
        total += self._d_m.nbytes
        total += sum(m.nbytes for m in self._term_matrices)
        return total
