"""Ground truth for Kronecker chains: the one query engine.

A chain ``C = X₁ ⊗ X₂ ⊗ … ⊗ X_k`` is never formed.  Every quantity the
generator and the oracle need is **multiplicative across the Kronecker
product**, so it is read from factor-sized tables (:class:`ChainFactor`):

* ``d``, ``w2 = X²1``, ``cw4 = diag(X⁴)`` are coordinate-wise
  Kronecker products of the per-factor vectors;
* ``W3 = X³∘X`` is entry-wise multiplicative on the product pattern;
* on a loop-free product, Def. 9 gives the per-entry 4-cycle count
  ``◇(p, q) = Π_t W3_t(i_t, j_t) − Π_t d_t(i_t) − Π_t d_t(j_t) + 1``
  (:func:`def9_finish`) and Def. 8 the per-vertex count
  ``s(p) = (Π cw4_t − Π d_t² − Π w2_t + Π d_t) / 2``
  (:func:`def8_finish`).

These hold for factors *with* self loops as long as the product is
loop-free (at least one factor loop-free), so the 2-factor products of
Assumption 1(i)/(ii) are exactly the chains ``[M, B]`` with
``M = A`` or ``A + I_A`` (each :class:`~repro.kronecker.assumptions.BipartiteKronecker`
holds its own as ``.chain``): Thm. 3/4/5 and the derived 1(ii) edge formula
are these two finishes on two factors.  The paper's printed forms live
in :mod:`repro.refcheck.printed` as an independent referee.

A product row ``p`` splits mixed-radix into per-factor digits, so the
batched queries (:meth:`KroneckerChain.degrees`,
:meth:`~KroneckerChain.vertex_squares`,
:meth:`~KroneckerChain.edge_squares`) gather per-factor values, with
one hash probe per factor for edge membership and ``W3``.  Row ranges
stream shard-by-shard (:meth:`~KroneckerChain.stream_rows`), and
row-range sums of any multiplicative vertex vector (shard work
``Σ Π d_t``, per-shard ground-truth totals ``Σ s``) are exact Python
ints from mixed-radix prefix sums in ``O(k · log)`` time — the closed
forms the per-shard validation artifacts are built on.  The work
prefix's inverse, a digit descent over the same tables
(:meth:`~KroneckerChain.work_row`), is where the degree-aware
partitioner (:mod:`repro.parallel.partition`) cuts its shards.

The engine never imports scipy: a factor's walk tables come from one
numpy pass over its CSR pattern (:func:`_walk_tables`: blocked over the
wedges, or dense products for a small dense factor), so building,
streaming and serving a chain hold factor-sized tables plus one block.
Only :meth:`KroneckerChain.materialize`, the one materializer (for
referees, and for ``BipartiteKronecker.materialize``), does.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.kronecker.kernels import _BATCH_CHUNK, build_edge_table, probe_edge_table

if TYPE_CHECKING:  # pragma: no cover
    import scipy.sparse as sp

    from repro.graphs.graph import Graph

__all__ = [
    "STREAM_BLOCK_ENTRIES",
    "ChainFactor",
    "KroneckerChain",
    "def8_finish",
    "def9_finish",
]

#: Entries per streamed block: :meth:`KroneckerChain.stream_rows`'
#: default, and so the block size of every edge stream, shard writer
#: and edge-file frame.  A ground-truth block is 24 bytes an entry
#: (~1.5 MiB), small enough to stay cache-resident.
STREAM_BLOCK_ENTRIES = 1 << 16

#: Largest factor whose walk tables come from dense int32 matrix
#: products (4 MiB a matrix), when it also has ``n³ ≤ 32 · Σ w2``:
#: K₇₁,₇₁ has 716k wedges for a 142-vertex ``X²``, and ``einsum``'s
#: own loops (exact, on the calling thread, no BLAS) multiply it in
#: under a millisecond, several times faster than its wedge pass.
DENSE_MAX_N = 1024


def def8_finish(cw4, d2, w2, d):
    """Def. 8: ``s = (Π cw4 − Π d² − Π w2 + Π d) / 2`` from the four
    products, for int64 arrays and exact Python ints alike."""
    num = cw4 - d2 - w2 + d
    odd = num & 1 if isinstance(num, int) else np.bitwise_or.reduce(num) & 1
    assert not odd, "vertex square formula must yield even closed-walk excess"
    return num >> 1


def def9_finish(w3, drow, dcol):
    """Def. 9: ``◇ = Π W3 − Π d_row − Π d_col + 1`` from the three
    products.  On ``[M, B]`` the two degree products are the β terms
    of Thm. 5 and ``Π W3`` its α term."""
    return w3 - drow - dcol + 1


class _WalkTable:
    """A :class:`ChainFactor` walk table: built with the other two on the
    first read of any, unless given, and kept in the instance ``__dict__``
    under its own name (so a pickled factor carries it)."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, factor, owner=None):
        if factor is None:
            return None  # the dataclass default: not built yet
        if factor.__dict__[self.name] is None:
            factor.__dict__.update(zip(("w2", "cw4", "w3"), _walk_tables(factor)))
        return factor.__dict__[self.name]

    def __set__(self, factor, table):
        factor.__dict__[self.name] = table


def _walk_tables(
    factor: ChainFactor, *, edges: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(w2, cw4, w3)`` of a factor from its CSR pattern, in numpy;
    ``w3`` is None unless ``edges``.

    ``w2`` sums the neighbours' degrees.  A small dense factor (see
    :data:`DENSE_MAX_N`) is multiplied as dense int32 matrices, whose
    entries stay below ``n³ ≤ 2³⁰``.  Otherwise two-walks ``i → m → b``
    (*wedges*) are expanded for blocks of rows holding at most
    :data:`STREAM_BLOCK_ENTRIES` of them (a row with more is a block
    alone), and sorting a block's wedge keys ``(i, b)`` gives its rows
    of ``X²`` as runs of equal keys.  For ``w3`` every
    wedge is expanded and reads back the length of its run, so ``w3(i,
    m) = Σ_{b ∈ N(m)} X²(i, b)`` is a segment sum over the wedges of
    entry ``(i, m)``, and ``cw4(i)`` sums row ``i``'s squared run
    lengths.  Without ``w3`` only the wedges with ``b > i`` are
    expanded, about half: ``X²`` is symmetric with ``X²(i, i) = d_i``,
    so each run ``(i, b)`` adds its square to ``cw4`` at ``i`` and at
    ``b``, and ``d²`` adds the diagonal.  Memory is a few blocks of
    wedges, whatever ``X²``'s size.
    """
    n, indptr, indices, d = factor.n, factor.indptr, factor.indices, factor.d
    per_entry = d[indices]  # wedges out of each stored entry, >= 1
    entry_ends = np.concatenate(([0], np.cumsum(per_entry)))
    w2 = entry_ends[indptr[1:]] - entry_ends[indptr[:-1]]
    if n <= DENSE_MAX_N and n**3 <= 32 * int(entry_ends[-1]):
        rows = factor.entry_rows()
        X = np.zeros((n, n), dtype=np.int32)
        X[rows, indices] = 1
        X2 = np.einsum("ij,jk->ik", X, X)
        cw4 = np.einsum("ij,ij->i", X2, X2).astype(np.int64)
        w3 = np.einsum("ij,jk->ik", X2, X)[rows, indices].astype(np.int64) if edges else None
        return w2, cw4, w3
    first_b = indptr[indices]
    if not edges:
        # The wedges with b > i of entry e = (i, m) follow entry (m, i)
        # in row m, the e-th entry in (column, row) order.
        first_b = np.argsort(indices * n + factor.entry_rows()) + 1
        per_entry = indptr[indices + 1] - first_b
        entry_ends = np.concatenate(([0], np.cumsum(per_entry)))
    wedges = entry_ends[indptr[1:]] - entry_ends[indptr[:-1]]
    cw4 = np.zeros(n, dtype=np.int64)
    w3 = np.zeros(indices.size, dtype=np.int64) if edges else None
    shift = (n - 1).bit_length()  # a key is (row in block) << shift | column
    narrow = np.int32 if n < 2**31 else np.int64  # keys sort faster in 32 bits
    cols = indices.astype(narrow)
    row_ends = np.cumsum(wedges)
    lo = 0
    while lo < n:
        base = row_ends[lo] - wedges[lo]
        hi = max(lo + 1, int(np.searchsorted(row_ends, base + STREAM_BLOCK_ENTRIES, "right")))
        total = int(row_ends[hi - 1] - base)
        if total == 0:
            lo = hi
            continue
        first, last = indptr[lo], indptr[hi]
        counts = per_entry[first:last]
        starts = np.repeat(first_b[first:last] - entry_ends[first:last] + base, counts)
        width = narrow if (hi - lo) << shift < 2**31 else np.int64
        row_keys = np.repeat(np.arange(hi - lo, dtype=width) << shift, d[lo:hi])
        keys = np.repeat(row_keys, counts) + cols[starts + np.arange(total)]
        if edges:
            order = np.argsort(keys)
            keys = keys[order]
        else:
            keys.sort()
        runs = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        x2 = np.diff(np.append(runs, total))
        live = lo + np.flatnonzero(wedges[lo:hi])  # rows with wedges; each starts a run
        at = np.searchsorted(runs, row_ends[live] - wedges[live] - base)
        cw4[live] += np.add.reduceat(x2 * x2, at)
        if edges:
            per_wedge = np.empty(total, dtype=np.int64)
            per_wedge[order] = np.repeat(x2, x2)
            w3[first:last] = np.add.reduceat(per_wedge, entry_ends[first:last] - base)
        else:  # X²(b, i) = X²(i, b)
            np.add.at(cw4, (keys[runs] & ((1 << shift) - 1)).astype(np.intp), x2 * x2)
        lo = hi
    if not edges:
        cw4 += d * d
    return w2, cw4, w3


@dataclass(frozen=True, kw_only=True)
class ChainFactor:
    """The factor-sized tables the chain engine consumes.

    Unlike :class:`~repro.refcheck.spgemm.FactorStats` this
    admits factors *with* self loops (the effective ``M = A + I_A`` of
    Assumption 1(ii)); loop-freeness is a property of the **product**
    and is enforced by :class:`KroneckerChain`.  All arrays are int64;
    ``w3`` is edge-aligned in CSR entry order, and the CSR column
    indices are sorted within each row.  The CSR pattern, ``d`` and
    ``has_loops`` are eager, and all that degree plans and plain streams
    read; the walk tables ``w2``, ``cw4`` and ``w3`` are built together
    on the first read of any of them, unless given.
    """

    n: int
    nnz: int                #: directed stored entries
    indptr: np.ndarray      #: CSR row pointers
    indices: np.ndarray     #: CSR column indices
    d: np.ndarray           #: degree vector ``X 1`` (loops count once)
    w2: _WalkTable = _WalkTable()   #: two-walk vector ``X² 1``
    cw4: _WalkTable = _WalkTable()  #: closed four-walks ``diag(X⁴)``
    w3: _WalkTable = _WalkTable()   #: ``(X³ ∘ X)`` at stored entries, CSR order
    has_loops: bool

    @classmethod
    def from_graph(cls, graph: Graph) -> "ChainFactor":
        """A graph's factor, read off its canonical (sorted, binary, int64) CSR."""
        return cls(
            n=graph.n, nnz=graph.nnz, indptr=graph.indptr, indices=graph.indices,
            d=np.diff(graph.indptr), has_loops=graph.has_self_loops,
        )

    def entry_rows(self) -> np.ndarray:
        """Row of every stored entry, in CSR order."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))


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
    quantity the generator and the oracle need is a product over
    digits, so batched queries and row ranges run on factor-sized
    tables (module docstring).  The product must be loop-free — at
    least one factor without self loops — which is what makes the
    Def. 8/9 ground-truth forms exact.

    Instances are cheap to pickle (factor tables only), so shard
    workers receive the whole chain.
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
        self.n = math.prod(int(f.n) for f in factors)
        self.nnz = math.prod(int(f.nnz) for f in factors)
        self._tables: dict[str, list[tuple[list[int], list[int]]]] = {}
        self._vertex_stacks: list[np.ndarray] | None = None
        self._edge_tables: list[tuple[np.ndarray, np.ndarray, int]] | None = None

    @property
    def m(self) -> int:
        """Undirected edges of the product.  A product self loop needs a
        loop in every factor (there are Π_t loops_t of them), which the
        constructor refuses, so each edge is two stored entries."""
        return self.nnz // 2

    # -- constructors -------------------------------------------------

    @classmethod
    def from_graphs(cls, graphs: Sequence[Graph]) -> "KroneckerChain":
        return cls([ChainFactor.from_graph(g) for g in graphs])

    # -- mixed-radix prefix machinery ---------------------------------

    def digits(self, p: int) -> tuple[int, ...]:
        """Per-factor row digits of product row ``p``: Def. 4's α/β maps,
        mixed-radix (``divmod(p, n_B)`` on a 2-factor chain)."""
        if not 0 <= p < self.n:
            raise IndexError(f"product vertex {p} out of range [0, {self.n})")
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
            return math.prod(totals)
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

    def work_row(self, x: int) -> tuple[int, int, int]:
        """``(p, W(p), work(p))`` for the row ``p`` that holds directed
        entry ``x`` (``W(p) <= x < W(p) + work(p)``, so ``work(p) > 0``):
        the inverse of :meth:`work_prefix`, exact, in ``O(k log n_f)``.

        A digit descent over the ``d`` tables of :meth:`_kron_prefix`:
        under the digits chosen so far (``L = Π_{s<t} d_s(i_s)``), digit
        ``j`` of factor ``t`` starts ``L · C_t(j) · S_{>t}`` entries in,
        and ``i_t`` is the last ``j`` whose start does not pass ``x``.
        """
        if not 0 <= x < self.nnz:
            raise ValueError(f"entry {x} out of range [0, {self.nnz})")
        p, start, left, rest = 0, 0, 1, self.nnz
        for f, (values, csum) in zip(self.factors, self._vector_tables("d")):
            rest //= csum[-1]
            j = bisect.bisect_right(csum, (x - start) // (left * rest)) - 1
            start += left * csum[j] * rest
            left *= values[j]
            p = p * f.n + j
        return p, start, left

    def _kron_range_sum(self, kind: str, lo: int, hi: int) -> int:
        self._check_range(lo, hi)
        return self._kron_prefix(kind, hi) - self._kron_prefix(kind, lo)

    def _check_range(self, lo: int, hi: int) -> None:
        if not 0 <= lo <= hi <= self.n:
            raise ValueError(f"row range [{lo}, {hi}) outside [0, {self.n})")

    # -- work model ---------------------------------------------------

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
        return def8_finish(
            *(self._kron_range_sum(kind, lo, hi) for kind in ("cw4", "d2", "w2", "d"))
        )

    def global_squares(self) -> int:
        """Total 4-cycles of the chain product: ``Σ_p s(p) / 4``."""
        total, rem4 = divmod(self.vertex_squares_range_sum(0, self.n), 4)
        assert rem4 == 0, "sum of vertex square counts must be divisible by 4"
        return total

    # -- batched queries ----------------------------------------------

    def _rows(self, ps, name: str) -> np.ndarray:
        """``ps`` as a range-checked 1-D int64 array of product rows."""
        ps = np.asarray(ps, dtype=np.int64)
        if ps.ndim != 1:
            raise ValueError(f"{name} must be a 1-D index array, got shape {ps.shape}")
        if ps.size and (int(ps.min()) < 0 or int(ps.max()) >= self.n):
            bad = ps[(ps < 0) | (ps >= self.n)][0]
            raise IndexError(f"product vertex {int(bad)} out of range [0, {self.n})")
        return ps

    def _split(self, ps: np.ndarray) -> list[np.ndarray]:
        """Per-factor digit arrays of validated rows ``ps``, factor order."""
        digits = [ps] * len(self.factors)
        rem = ps
        for t in range(len(self.factors) - 1, 0, -1):
            n_t = self.factors[t].n
            quot = rem // n_t
            digits[t] = rem - quot * n_t
            rem = quot
        digits[0] = rem
        return digits

    def degrees(self, ps) -> np.ndarray:
        """Degree ``Π_t d_t(i_t)`` of every product vertex in ``ps``."""
        out = None
        for f, i in zip(self.factors, self._split(self._rows(ps, "ps"))):
            d = np.take(f.d, i, mode="clip")
            out = d if out is None else np.multiply(out, d, out=out)
        return out

    def vertex_squares(self, ps) -> np.ndarray:
        """Def. 8 vertex 4-cycle counts ``s(p)`` for every ``p`` in
        ``ps``, in ``_BATCH_CHUNK``-sized chunks so every temporary
        stays cache-resident."""
        ps = self._rows(ps, "ps")
        if self._vertex_stacks is None:
            # Per factor, the four Def. 8 vectors side by side: one
            # gather per factor fetches all four products' operands.
            self._vertex_stacks = [
                np.ascontiguousarray(np.stack((f.cw4, f.d * f.d, f.w2, f.d), axis=1))
                for f in self.factors
            ]
        out = np.empty(ps.size, dtype=np.int64)
        for s in range(0, ps.size, _BATCH_CHUNK):
            e = min(s + _BATCH_CHUNK, ps.size)
            acc = None
            for stack, i in zip(self._vertex_stacks, self._split(ps[s:e])):
                part = np.take(stack, i, axis=0, mode="clip")
                acc = part if acc is None else np.multiply(acc, part, out=acc)
            out[s:e] = def8_finish(acc[:, 0], acc[:, 1], acc[:, 2], acc[:, 3])
        return out

    def edge_squares(self, ps, qs) -> tuple[np.ndarray, np.ndarray]:
        """Def. 9 edge 4-cycle counts at arbitrary ``(p, q)`` batches.

        Returns ``(values, valid)``: ``valid[t]`` is False (and
        ``values[t]`` 0) when ``(ps[t], qs[t])`` is not a product entry
        -- masking instead of raise-per-query, so millions of
        speculative queries cost one vectorized pass.  Large batches
        run in ``_BATCH_CHUNK``-sized chunks.
        """
        ps = self._rows(ps, "ps")
        qs = self._rows(qs, "qs")
        if ps.shape != qs.shape:
            raise ValueError(f"ps and qs must match in shape: {ps.shape} vs {qs.shape}")
        if self._edge_tables is None:
            # Per-factor ``W3`` hash tables keyed ``row·n + col``.
            self._edge_tables = [
                build_edge_table(f.entry_rows() * f.n + f.indices, f.w3) for f in self.factors
            ]
        if ps.size <= _BATCH_CHUNK:
            return self._edge_block(ps, qs)
        vals = np.empty(ps.size, dtype=np.int64)
        valid = np.empty(ps.size, dtype=bool)
        for s in range(0, ps.size, _BATCH_CHUNK):
            e = min(s + _BATCH_CHUNK, ps.size)
            vals[s:e], valid[s:e] = self._edge_block(ps[s:e], qs[s:e])
        return vals, valid

    def _edge_block(self, ps: np.ndarray, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One chunk of :meth:`edge_squares`: one hash probe and two
        degree gathers per factor, then the Def. 9 finish."""
        w3 = drow = dcol = valid = None
        tables = zip(self.factors, self._edge_tables, self._split(ps), self._split(qs))
        for f, table, i, j in tables:
            found, w3_t = probe_edge_table(*table, i * f.n + j)
            d_i = np.take(f.d, i, mode="clip")
            d_j = np.take(f.d, j, mode="clip")
            if w3 is None:
                w3, drow, dcol, valid = w3_t, d_i, d_j, found
            else:
                w3 *= w3_t
                drow *= d_i
                dcol *= d_j
                valid &= found
        vals = def9_finish(w3, drow, dcol)
        vals *= valid  # zero the invalid slots without a full np.where pass
        return vals, valid

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
        ``block_entries`` entries each (default
        :data:`STREAM_BLOCK_ENTRIES`).  The concatenation over all
        blocks is a pure function of ``(chain, lo, hi)``: block
        boundaries may move with ``block_entries`` but the entry
        sequence never does, which is what makes shard bytes resume-
        and format-independent.

        Memory is bounded by the block size plus factor tables; no
        intermediate product of a factor prefix is ever materialized —
        a row range recurses into boundary/full segments per factor and
        expands entry blocks with one outer-product index operation per
        level.
        """
        self._check_range(lo, hi)
        max_entries = STREAM_BLOCK_ENTRIES if block_entries is None else int(block_entries)
        if max_entries <= 0:
            raise ValueError(f"block_entries must be positive, got {block_entries}")
        for block in self._entry_blocks(
            len(self.factors) - 1, lo, hi, max_entries, attach_ground_truth
        ):
            if attach_ground_truth:
                rows, cols, w3, drow, dcol = block
                yield rows, cols, def9_finish(w3, drow, dcol)
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

    def materialize(self, max_entries: int = 5_000_000) -> sp.csr_array:
        """Fold the factors with ``sp.kron`` into the product's CSR, in
        :func:`scipy.sparse.kron` order — at most ``max_entries`` stored
        entries unless the caller lifts the cap."""
        if self.nnz > max_entries:
            raise ValueError(
                f"refusing to materialize a {self.nnz}-entry chain product "
                f"(cap {max_entries}); the chain exists to avoid exactly this"
            )
        import scipy.sparse as sp

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
        ``__init__``, so building a chain stays hash-free, and imported
        here so a serving process never loads ``hashlib`` (OpenSSL).
        """
        import hashlib

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
