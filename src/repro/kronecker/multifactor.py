"""Ground truth for multi-factor Kronecker products.

The Graph500-lineage generators iterate the product, ``C = A ⊗ A ⊗ …``;
the paper's conclusion anticipates implementing "this style of
generator" with ground truth computed *during* generation.  The key
observation enabling that here: the statistics bundle
:class:`~repro.kronecker.ground_truth.FactorStats` is **closed under
the product** -- from the stats of two loop-free factors one can build
the stats of their product without counting anything on it:

* ``d, w2``: coordinate-wise Kronecker products,
* ``s, cw4``: the Thm.-3 machinery (whose derivation never uses
  bipartiteness, only loop-freeness),
* ``◇``: the Thm.-5 machinery,
* ``adj``: a sparse ``kron``.

Folding :func:`combine_stats` over a factor list therefore yields exact
vertex/edge/global 4-cycle ground truth for products of *any* number of
loop-free factors, with each intermediate step costing only the size of
the intermediate (the final adjacency is the same object a generator
would emit anyway).

:func:`combine_stats` still *materializes* each intermediate adjacency,
which caps it at products that fit in memory.  The extreme-scale tier
(:class:`KroneckerChain`) drops that: every quantity the generator
needs is **multiplicative across the Kronecker product**, so deep
chains ``X₁ ⊗ X₂ ⊗ …`` stream shard-by-shard from factor-sized tables
with nothing product-sized ever allocated:

* ``d``, ``w2 = X²1``, ``cw4 = diag(X⁴)`` are coordinate-wise
  Kronecker products of the per-factor vectors;
* ``W3 = X³∘X`` is entry-wise multiplicative on the product pattern;
* on a loop-free product, Def. 9 gives the per-entry 4-cycle count
  ``◇(p, q) = Π_t W3_t(i_t, j_t) − Π_t d_t(i_t) − Π_t d_t(j_t) + 1``
  and Def. 8 the per-vertex count
  ``s(p) = (Π cw4_t − Π d_t² − Π w2_t + Π d_t) / 2``.

These hold for factors *with* self loops as long as the product is
loop-free (at least one factor loop-free), so the 2-factor products of
Assumption 1(i)/(ii) are exactly the chains ``[M, B]`` — Thm. 3/4/5 and
the derived 1(ii) edge formula fall out of the same code path, which
the property tests assert bit-for-bit against the fused kernels.

Row-range sums of any multiplicative vertex vector (shard work
``Σ Π d_t``, per-shard ground-truth totals ``Σ s``) are evaluated in
``O(k · log)`` time from mixed-radix prefix sums — the closed forms the
degree-aware partitioner (:mod:`repro.parallel.partition`) and the
per-shard validation artifacts are built on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.kronecker import kernels
from repro.kronecker.assumptions import Assumption, BipartiteKronecker
from repro.kronecker.ground_truth import FactorStats, _vertex_terms

__all__ = [
    "combine_stats",
    "multi_kronecker_stats",
    "multi_kronecker_global_squares",
    "ChainFactor",
    "KroneckerChain",
]


def combine_stats(stats_a: FactorStats, stats_b: FactorStats) -> FactorStats:
    """Statistics of ``A ⊗ B`` from the factors' statistics.

    Both inputs must describe loop-free graphs (enforced at
    ``FactorStats`` construction); the output describes the loop-free
    product.  No counting is performed on the product -- every field
    comes from a closed form, evaluated by the fused kernels
    (:mod:`repro.kronecker.kernels`): the vertex vector is one stacked
    matmul and the edge diamonds are built directly on the product
    pattern, with no intermediate ``sp.kron`` term or re-anchoring
    extraction.
    """
    n = stats_a.n * stats_b.n
    d = np.kron(stats_a.d, stats_b.d)
    w2 = np.kron(stats_a.w2, stats_b.w2)
    # Vertex squares via the generic (Thm. 3) formula, fused.
    s = kernels.vertex_squares_grid(stats_a, stats_b, Assumption.NON_BIPARTITE_FACTOR)
    cw4 = 2 * s + d * d + w2 - d
    # Edge squares via the generic (Thm. 5) formula, fused on the
    # product pattern (explicit zeros preserved).
    adj = sp.csr_array(sp.kron(stats_a.adj, stats_b.adj, format="csr"))
    idx_a = stats_a.edge_index
    diamond = kernels.product_edge_squares_csr(
        stats_a, stats_b, Assumption.NON_BIPARTITE_FACTOR, idx_a.rows, idx_a.cols
    )
    return FactorStats(n=n, d=d, w2=w2, s=s, cw4=cw4, diamond=diamond, adj=adj)


def multi_kronecker_stats(factors: Sequence[Graph]) -> FactorStats:
    """Exact statistics of ``factors[0] ⊗ factors[1] ⊗ …``.

    Left-associative fold of :func:`combine_stats`; with one factor
    this is just ``FactorStats.from_graph``.
    """
    if not factors:
        raise ValueError("need at least one factor")
    acc = FactorStats.from_graph(factors[0])
    for g in factors[1:]:
        acc = combine_stats(acc, FactorStats.from_graph(g))
    return acc


def multi_kronecker_global_squares(factors: Sequence[Graph]) -> int:
    """Exact global 4-cycle count of a multi-factor product.

    Uses the vector-sum factorisation at the last fold so the final
    (largest) vertex vector is never formed: only the second-to-last
    intermediate's stats are materialized.
    """
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        return FactorStats.from_graph(factors[0]).global_squares()
    acc = FactorStats.from_graph(factors[0])
    for g in factors[1:-1]:
        acc = combine_stats(acc, FactorStats.from_graph(g))
    last = FactorStats.from_graph(factors[-1])
    total = 0
    for sign, left, right in _vertex_terms(acc, last, Assumption.NON_BIPARTITE_FACTOR):
        total += sign * int(left.sum()) * int(right.sum())
    half, rem = divmod(total, 2)
    assert rem == 0
    squares, rem4 = divmod(half, 4)
    assert rem4 == 0
    return squares


# ---------------------------------------------------------------------------
# Extreme-scale tier: streamed deep chains, no intermediates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainFactor:
    """The factor-sized tables chain generation consumes.

    Unlike :class:`~repro.kronecker.ground_truth.FactorStats` this
    admits factors *with* self loops (the effective ``M = A + I_A`` of
    Assumption 1(ii)); loop-freeness is a property of the **product**
    and is enforced by :class:`KroneckerChain`.  All arrays are int64;
    ``w3`` is edge-aligned in CSR entry order.
    """

    n: int
    nnz: int                #: directed stored entries
    indptr: np.ndarray      #: CSR row pointers
    indices: np.ndarray     #: CSR column indices
    d: np.ndarray           #: degree vector ``X 1`` (loops count once)
    w2: np.ndarray          #: two-walk vector ``X² 1``
    cw4: np.ndarray         #: closed four-walks ``diag(X⁴)``
    w3: np.ndarray          #: ``(X³ ∘ X)`` values at stored entries, CSR order
    has_loops: bool

    @classmethod
    def from_adjacency(cls, adj) -> "ChainFactor":
        """Tables from a binary symmetric adjacency (sparse or dense)."""
        X = sp.csr_array(adj).astype(np.int64)
        X.sort_indices()
        n = X.shape[0]
        d = np.asarray(X.sum(axis=1)).ravel().astype(np.int64)
        X2 = X @ X
        w2 = np.asarray(X2.sum(axis=1)).ravel().astype(np.int64)
        cw4 = np.asarray(X2.multiply(X2).sum(axis=1)).ravel().astype(np.int64)
        coo = X.tocoo()  # row-major, i.e. CSR entry order
        if coo.nnz:
            X3 = sp.csr_array(X2 @ X)
            w3 = np.asarray(X3[coo.row, coo.col]).ravel().astype(np.int64)
        else:
            w3 = np.zeros(0, dtype=np.int64)
        return cls(
            n=int(n),
            nnz=int(X.nnz),
            indptr=X.indptr.astype(np.int64),
            indices=X.indices.astype(np.int64),
            d=d,
            w2=w2,
            cw4=cw4,
            w3=w3,
            has_loops=bool(X.diagonal().any()),
        )

    @classmethod
    def from_graph(cls, graph: Graph) -> "ChainFactor":
        return cls.from_adjacency(graph.adj)


def _prefix_table(vector: np.ndarray) -> tuple[list[int], list[int]]:
    """``(values, cumulative)`` as exact Python ints (no int64 overflow
    in the k-fold products the mixed-radix prefix sums build)."""
    values = [int(x) for x in vector]
    csum = [0]
    for x in values:
        csum.append(csum[-1] + x)
    return values, csum


class KroneckerChain:
    """A deep Kronecker chain ``C = X₁ ⊗ X₂ ⊗ … ⊗ X_k``, never formed.

    Product row ``p`` decomposes mixed-radix into per-factor digits
    ``(i_1, …, i_k)`` with ``p = ((i_1·n_2 + i_2)·n_3 + …)``; every
    quantity the generator needs is a product over digits, so row
    ranges stream from factor-sized tables (module docstring).  The
    product must be loop-free — at least one factor without self loops
    — which is what makes the Def. 8/9 ground-truth forms exact.

    Instances are cheap to pickle (factor tables only), so shard
    workers receive the whole chain, mirroring the 2-factor
    :class:`~repro.kronecker.assumptions.BipartiteKronecker` contract.
    """

    def __init__(self, factors: Sequence[ChainFactor]):
        factors = list(factors)
        if not factors:
            raise ValueError("need at least one chain factor")
        if all(f.has_loops for f in factors):
            raise ValueError(
                "chain product would have self loops (every factor has one); "
                "ground-truth formulas need a loop-free product — include at "
                "least one loop-free factor (paper §II-B)"
            )
        self.factors = factors
        n = 1
        nnz = 1
        for f in factors:
            n *= f.n
            nnz *= f.nnz
        self.n = int(n)
        self.nnz = int(nnz)
        self._tables: dict[str, list[tuple[list[int], list[int]]]] = {}

    # -- constructors -------------------------------------------------

    @classmethod
    def from_graphs(cls, graphs: Sequence[Graph]) -> "KroneckerChain":
        return cls([ChainFactor.from_graph(g) for g in graphs])

    @classmethod
    def from_bipartite(cls, bk: BipartiteKronecker) -> "KroneckerChain":
        """The 2-factor chain ``[M, B]`` of an Assumption-1 product.

        Under 1(ii) ``M = A + I_A`` carries loops; the chain formulas
        reproduce Thm. 4 and the derived 1(ii) edge form exactly
        (``diag((A+I)⁴) = cw4_A + 6 d_A + 1`` for bipartite ``A``, etc.)
        because only the *product* needs to be loop-free.
        """
        return cls(
            [
                ChainFactor.from_adjacency(bk.M.adj),
                ChainFactor.from_adjacency(bk.B.graph.adj),
            ]
        )

    # -- mixed-radix prefix machinery ---------------------------------

    def digits(self, p: int) -> tuple[int, ...]:
        """Per-factor row digits of product row ``p``."""
        if not 0 <= p < self.n:
            raise ValueError(f"row {p} out of range [0, {self.n})")
        out = [0] * len(self.factors)
        rem = p
        for t in range(len(self.factors) - 1, -1, -1):
            rem, out[t] = divmod(rem, self.factors[t].n)
        return tuple(out)

    def _vector_tables(self, kind: str) -> list[tuple[list[int], list[int]]]:
        if kind not in self._tables:
            pick = {
                "d": lambda f: f.d,
                "d2": lambda f: f.d * f.d,
                "w2": lambda f: f.w2,
                "cw4": lambda f: f.cw4,
            }[kind]
            self._tables[kind] = [_prefix_table(pick(f)) for f in self.factors]
        return self._tables[kind]

    def _kron_prefix(self, kind: str, p: int) -> int:
        """``Σ_{p' < p} Π_t v_t(digit_t(p'))`` for a per-factor vector
        family ``v`` — exact, in ``O(k)`` after table setup.

        With digits ``(i_1, …, i_k)`` of ``p`` the prefix splits by the
        first digit where a smaller row diverges::

            F(p) = Σ_t ( Π_{s<t} v_s(i_s) ) · C_t(i_t) · Π_{s>t} S_s

        where ``C_t`` is the factor-``t`` cumulative sum and ``S_t`` its
        total.
        """
        tabs = self._vector_tables(kind)
        if p <= 0:
            return 0
        totals = [csum[-1] for _, csum in tabs]
        if p >= self.n:
            acc = 1
            for s in totals:
                acc *= s
            return acc
        suffix = [1] * (len(tabs) + 1)
        for t in range(len(tabs) - 1, -1, -1):
            suffix[t] = totals[t] * suffix[t + 1]
        digits = self.digits(p)
        acc = 0
        left = 1
        for t, (values, csum) in enumerate(tabs):
            acc += left * csum[digits[t]] * suffix[t + 1]
            left *= values[digits[t]]
        return acc

    def _kron_range_sum(self, kind: str, lo: int, hi: int) -> int:
        self._check_range(lo, hi)
        return self._kron_prefix(kind, hi) - self._kron_prefix(kind, lo)

    def _check_range(self, lo: int, hi: int) -> None:
        if not 0 <= lo <= hi <= self.n:
            raise ValueError(f"row range [{lo}, {hi}) outside [0, {self.n})")

    # -- work model ---------------------------------------------------

    def row_work(self, p: int) -> int:
        """Directed entries in product row ``p``: ``Π_t d_t(i_t)``."""
        acc = 1
        for f, i in zip(self.factors, self.digits(p)):
            acc *= int(f.d[i])
        return acc

    def work_prefix(self, p: int) -> int:
        """Directed entries in rows ``[0, p)`` — the partitioner's
        cut-point oracle (``work_prefix(n) == nnz``)."""
        return self._kron_prefix("d", p)

    def row_range_work(self, lo: int, hi: int) -> int:
        """Directed entries in rows ``[lo, hi)`` (exact shard size)."""
        return self._kron_range_sum("d", lo, hi)

    # -- ground truth -------------------------------------------------

    def vertex_squares_range_sum(self, lo: int, hi: int) -> int:
        """``Σ_{p in [lo, hi)} s(p)`` in closed form — the per-shard
        validation scalar (Def. 8 summed over the shard's rows)."""
        num = (
            self._kron_range_sum("cw4", lo, hi)
            - self._kron_range_sum("d2", lo, hi)
            - self._kron_range_sum("w2", lo, hi)
            + self._kron_range_sum("d", lo, hi)
        )
        half, rem = divmod(num, 2)
        assert rem == 0, "vertex square range sum must be even"
        return half

    def global_squares(self) -> int:
        """Total 4-cycles of the chain product: ``Σ_p s(p) / 4``."""
        total, rem4 = divmod(self.vertex_squares_range_sum(0, self.n), 4)
        assert rem4 == 0, "sum of vertex square counts must be divisible by 4"
        return total

    # -- streaming generation -----------------------------------------

    def stream_rows(
        self,
        lo: int,
        hi: int,
        attach_ground_truth: bool = False,
        block_entries: int | None = None,
    ) -> Iterator[tuple[np.ndarray, ...]]:
        """Stream the directed entries of product rows ``[lo, hi)``.

        Yields ``(p, q)`` int64 blocks — or ``(p, q, squares)`` with
        exact per-entry 4-cycle counts — of at most roughly
        ``block_entries`` entries each (default ``2**20``).  The
        concatenation over all blocks is a pure function of
        ``(chain, lo, hi)``: block boundaries may move with
        ``block_entries`` but the entry sequence never does, which is
        what makes shard bytes resume- and format-independent.

        Memory is bounded by the block size plus factor tables; no
        intermediate product of a factor prefix is ever materialized —
        a row range recurses into boundary/full segments per factor and
        expands entry blocks with one outer-product index operation per
        level.
        """
        self._check_range(lo, hi)
        max_entries = int(block_entries) if block_entries else 1 << 20
        if max_entries <= 0:
            raise ValueError(f"block_entries must be positive, got {block_entries}")
        for block in self._entry_blocks(
            len(self.factors) - 1, lo, hi, max_entries, attach_ground_truth
        ):
            if attach_ground_truth:
                rows, cols, w3, drow, dcol = block
                yield rows, cols, w3 - drow - dcol + 1
            else:
                yield block

    def _entry_blocks(
        self, level: int, lo: int, hi: int, max_entries: int, gt: bool
    ) -> Iterator[tuple[np.ndarray, ...]]:
        """Entry blocks of the prefix chain ``X₁ ⊗ … ⊗ X_{level+1}``
        restricted to its rows ``[lo, hi)``.

        With ``gt`` each block carries ``(rows, cols, Πw3, Πd_row,
        Πd_col)`` so the top level can finish Def. 9 with one
        subtraction.  Deterministic order: factor-0 CSR order expanded
        lexicographically by per-factor entry order at each level.
        """
        f = self.factors[level]
        if level == 0:
            first = int(f.indptr[lo])
            last = int(f.indptr[hi])
            rows_all = np.repeat(
                np.arange(lo, hi, dtype=np.int64), np.diff(f.indptr[lo : hi + 1])
            )
            for s0 in range(0, last - first, max_entries):
                s1 = min(s0 + max_entries, last - first)
                rows = rows_all[s0:s1]
                cols = f.indices[first + s0 : first + s1]
                if gt:
                    yield rows, cols, f.w3[first + s0 : first + s1], f.d[rows], f.d[cols]
                else:
                    yield rows, cols
            return
        # Split [lo, hi) over this factor's radix: at most two partial
        # prefix rows at the boundaries plus one run of full prefix rows.
        r0, a = divmod(lo, f.n)
        r1, b = divmod(hi, f.n)
        segments: list[tuple[int, int, int, int]] = []
        if r0 == r1:
            segments.append((r0, r0 + 1, a, b))
        else:
            if a > 0:
                segments.append((r0, r0 + 1, a, f.n))
                r0 += 1
            if r0 < r1:
                segments.append((r0, r1, 0, f.n))
            if b > 0:
                segments.append((r1, r1 + 1, 0, b))
        for plo, phi, dlo, dhi in segments:
            e0 = int(f.indptr[dlo])
            e1 = int(f.indptr[dhi])
            cnt = e1 - e0
            if cnt == 0 or plo >= phi:
                continue
            t_rows = np.repeat(
                np.arange(dlo, dhi, dtype=np.int64), np.diff(f.indptr[dlo : dhi + 1])
            )
            t_cols = f.indices[e0:e1]
            if gt:
                t_w3 = f.w3[e0:e1]
                t_drow = f.d[t_rows]
                t_dcol = f.d[t_cols]
            # ``per`` is only a hint to the lower levels: small radices
            # clamp it to 1 and their blocks overshoot, which would
            # compound into materialized expansions many times
            # ``max_entries`` (and fall out of cache).  Re-chunk every
            # incoming prefix block — and, when a single prefix entry
            # already expands past the budget, the factor entries too —
            # so no materialized block exceeds ~``max_entries``.
            per = max(1, max_entries // cnt)
            group = per
            # Re-chunking is only worth the block fragmentation when a
            # block genuinely blows the budget — marginal overshoot
            # (under 1.25x for prefix groups, 2x for factor entries)
            # stays in one piece.
            slack = group + (group >> 2)
            t_step = cnt if cnt <= 2 * max_entries else max_entries
            for block in self._entry_blocks(level - 1, plo, phi, per, gt):
                if block[0].size <= slack:
                    subs = [block]
                else:
                    subs = [
                        tuple(a[s : s + group] for a in block)
                        for s in range(0, block[0].size, group)
                    ]
                for sub in subs:
                    for c0 in range(0, cnt, t_step):
                        c1 = min(c0 + t_step, cnt)
                        rows = (
                            sub[0][:, None] * f.n + t_rows[None, c0:c1]
                        ).reshape(-1)
                        cols = (
                            sub[1][:, None] * f.n + t_cols[None, c0:c1]
                        ).reshape(-1)
                        if gt:
                            w3 = (sub[2][:, None] * t_w3[None, c0:c1]).reshape(-1)
                            drow = (sub[3][:, None] * t_drow[None, c0:c1]).reshape(-1)
                            dcol = (sub[4][:, None] * t_dcol[None, c0:c1]).reshape(-1)
                            yield rows, cols, w3, drow, dcol
                        else:
                            yield rows, cols

    # -- small-product helpers (tests, refcheck referee) ---------------

    def materialize(self, max_entries: int = 5_000_000) -> sp.csr_array:
        """Fold the factors with ``sp.kron`` — referee-sized chains only."""
        if self.nnz > max_entries:
            raise ValueError(
                f"refusing to materialize a {self.nnz}-entry chain product "
                f"(cap {max_entries}); the chain exists to avoid exactly this"
            )
        acc = None
        for f in self.factors:
            adj = sp.csr_array(
                (np.ones(f.nnz, dtype=np.int64), f.indices, f.indptr), shape=(f.n, f.n)
            )
            acc = adj if acc is None else sp.csr_array(sp.kron(acc, adj, format="csr"))
        return acc

    def signature(self) -> dict:
        """Factor fingerprint for shard-manifest signatures.

        Each factor's ``(n, nnz)`` plus a sha256 of its CSR ``indptr``
        and ``indices``: two factors of equal shape but different edges
        (``pa:16:2:0`` vs ``pa:16:2:1``) must not share a signature, or
        a resume would mix their shards.  Hashed here, not in
        ``__init__``, so building a chain stays hash-free.
        """
        factors = []
        for f in self.factors:
            h = hashlib.sha256()
            h.update(np.ascontiguousarray(f.indptr, dtype="<i8").tobytes())
            h.update(np.ascontiguousarray(f.indices, dtype="<i8").tobytes())
            factors.append({"n": f.n, "nnz": f.nnz, "sha256": h.hexdigest()})
        return {"kind": "chain", "factors": factors}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shape = " x ".join(str(f.n) for f in self.factors)
        return f"KroneckerChain({shape}; nnz={self.nnz})"
