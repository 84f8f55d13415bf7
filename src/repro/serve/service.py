"""In-process oracle serving: synchronous answers, LRU cache, backpressure.

:class:`OracleService` sits between callers (the pre-fork front end,
benches, or library users) and a :class:`~repro.kronecker.oracle.GroundTruthOracle`.
Three mechanisms turn the oracle's batched kernels into a service that
degrades gracefully under heavy traffic instead of falling over:

* **Synchronous answers.**  :meth:`~OracleService.answer` validates a
  request, checks the cache, and makes one engine call on the
  caller's thread.  Both served protocols (HTTP JSON and the binary
  wire frames of :mod:`repro.serve.prefork`) take this path.
* **Byte-budgeted LRU result cache.**  Identical requests (same kind +
  same index values) are answered from an ``OrderedDict`` LRU without
  touching the kernels; hits and misses are counted both locally
  (:meth:`stats`) and through :mod:`repro.obs`.  The key is ``(kind, n,
  index bytes)``: the exact validated int64 bytes, so a hit is
  confirmed by byte equality and two requests can never collide.  An
  entry is charged its answer bytes, its key bytes and
  :data:`ENTRY_OVERHEAD` bytes of key and LRU bookkeeping.  The cache
  evicts the least recently used entries while the charges exceed
  ``cache_bytes``; an answer whose charge alone exceeds the budget is
  returned uncached.  Nothing here hashes with ``hashlib``, so a serving
  process never maps OpenSSL.
* **Backpressure.**  Once ``max_queue`` calls are in progress, the
  next cache miss sheds with a typed :class:`Overloaded` error (HTTP
  503, wire ``STATUS_OVERLOADED``) instead of letting latency grow
  without bound.

There is no request queue: a 64-query answer costs tens of µs, less
than handing it to another thread would.  Callers batch by sending
index arrays.

Non-edges follow the oracle's ``on_invalid="mask"`` semantics: the
answer array carries :data:`INVALID_SQUARES` (``-1``; ``NaN`` for
clustering) at invalid slots, and the HTTP layer maps any invalid slot
to 422.  See docs/serving.md for tuning guidance.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional

import numpy as np

from repro.kronecker.oracle import GroundTruthOracle
from repro.obs import get_events, get_metrics
from repro.serve.wire import KINDS, PAIR_KINDS

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "ENTRY_OVERHEAD",
    "INVALID_SQUARES",
    "Overloaded",
    "OracleService",
]

#: Sentinel for non-edge slots in integer answers (counts are never negative).
INVALID_SQUARES = -1

#: Default result-cache budget per service (per pre-fork worker): 2 MiB.
DEFAULT_CACHE_BYTES = 2 << 20

#: Bytes charged per cache entry besides its answer and key bytes: the
#: key tuple and its bytes object's header, the LRU node with its share
#: of the hash table, and the answer array's header.  ``tracemalloc``
#: reads 320-405 B per entry (CPython 3.11, numpy 2.4), the spread
#: being how full the LRU's hash table is: the most is read just after
#: the ``OrderedDict`` table doubles (at 174, 348 and 697 entries).  The
#: charge is that worst case, rounded up to 8 B, so a full cache's
#: traced memory stays within its budget wherever the table stands
#: (1.1x with slack; tests/serve/test_service.py).
ENTRY_OVERHEAD = 408


class Overloaded(RuntimeError):
    """Request shed: ``max_queue`` calls are already in progress.

    The typed load-shedding error -- callers should back off and retry;
    the HTTP layer maps it to 503 with a ``Retry-After`` hint.
    """


def _entry_bytes(key: tuple, value: Any) -> int:
    """Bytes one cache entry is charged: answer, key bytes, fixed overhead."""
    return getattr(value, "nbytes", 8) + len(key[2]) + ENTRY_OVERHEAD


def _cache_key(kind: str, ps: np.ndarray, qs: Optional[np.ndarray]) -> tuple:
    """``(kind, n, ps bytes [+ qs bytes])`` over validated native int64
    buffers; pair kinds enforce ``len(ps) == len(qs)``, so ``n`` makes
    the concatenation unambiguous."""
    return (kind, ps.size, ps.tobytes() if qs is None else b"".join((ps, qs)))


class _Answered:
    """The handle :meth:`OracleService.submit` returns: already answered."""

    __slots__ = ("result",)

    def __init__(self, result: Any):
        self.result = result

    def wait(self, timeout: Optional[float] = None) -> Any:
        """The answer; ``timeout`` is accepted and unused."""
        return self.result


class OracleService:
    """Thread-safe front-end over a ground-truth oracle.

    Parameters
    ----------
    oracle:
        The oracle to serve.
    max_queue:
        Bound on :meth:`answer` calls in progress; further cache misses
        shed with :class:`Overloaded`.  ``0`` sheds everything (drill
        mode).
    cache_bytes:
        Result-cache budget in bytes, charged per entry by answer bytes
        + key bytes + :data:`ENTRY_OVERHEAD` (``0`` disables the cache).
    """

    def __init__(
        self,
        oracle: GroundTruthOracle,
        *,
        max_queue: int = 1024,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ):
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if cache_bytes < 0:
            raise ValueError(f"cache_bytes must be >= 0, got {cache_bytes}")
        self.oracle = oracle
        self.max_queue = max_queue
        self.cache_budget_bytes = cache_bytes
        self._inflight = 0
        self._lock = threading.Lock()
        self._cache: "OrderedDict[tuple, Any]" = OrderedDict()
        self._cache_bytes = 0
        self._global: Optional[int] = None
        # Local tallies (always on) + obs metrics (no-ops unless enabled).
        self._counts = {
            "requests": 0, "queries": 0, "hits": 0, "misses": 0,
            "shed": 0, "batches": 0, "invalid": 0, "evictions": 0, "oversize": 0,
        }
        metrics = get_metrics()
        self._events = get_events()
        self._m_requests = metrics.counter("serve.requests_total")
        self._m_queries = metrics.counter("serve.queries_total")
        self._m_hits = metrics.counter("serve.cache_hits_total")
        self._m_misses = metrics.counter("serve.cache_misses_total")
        self._m_evictions = metrics.counter("serve.cache_evictions_total")
        self._m_oversize = metrics.counter("serve.cache_oversize_total")
        self._m_shed = metrics.counter("serve.shed_total")
        self._m_batches = metrics.counter("serve.batches_total")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _coerce(self, values: Any, name: str) -> np.ndarray:
        arr = np.asarray(values)
        if arr.dtype == object or not np.issubdtype(arr.dtype, np.integer):
            # Reject floats/strings/bools explicitly; int-valued lists pass.
            if arr.dtype == bool or not np.issubdtype(arr.dtype, np.number):
                raise ValueError(f"{name} must contain integers, got dtype {arr.dtype}")
            as_int = arr.astype(np.int64)
            if not np.array_equal(as_int, arr):
                raise ValueError(f"{name} must contain integers, got {arr.dtype} values")
            arr = as_int
        arr = arr.astype(np.int64, copy=False)
        if arr.ndim != 1:
            raise ValueError(f"{name} must be a flat index list, got shape {arr.shape}")
        # Native byte order and C order: the cache key is the buffer's bytes.
        arr = np.ascontiguousarray(arr)
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= self.oracle.n):
            bad = arr[(arr < 0) | (arr >= self.oracle.n)][0]
            raise IndexError(
                f"product vertex {int(bad)} out of range [0, {self.oracle.n})"
            )
        return arr

    def _validate(
        self, kind: str, ps: Any, qs: Any
    ) -> tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[tuple]]:
        """Shared request validation: ``(ps_arr, qs_arr, cache_key)``.

        The key is :func:`_cache_key`'s; ``None`` when the cache is off,
        and no key is built then.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown query kind {kind!r} (expected one of {KINDS})")
        if kind == "global":
            return None, None, (("global", 0, b"") if self.cache_budget_bytes else None)
        if ps is None:
            raise ValueError(f"{kind} queries need a ps index list")
        ps_arr = self._coerce(ps, "ps")
        if kind in PAIR_KINDS:
            if qs is None:
                raise ValueError(f"{kind} queries need both ps and qs index lists")
            qs_arr = self._coerce(qs, "qs")
            if ps_arr.shape != qs_arr.shape:
                raise ValueError(
                    f"ps and qs must match in length: {ps_arr.size} vs {qs_arr.size}"
                )
        else:
            if qs is not None:
                raise ValueError(f"{kind} queries take only ps, got a qs list too")
            qs_arr = None
        if not self.cache_budget_bytes:
            return ps_arr, qs_arr, None
        return ps_arr, qs_arr, _cache_key(kind, ps_arr, qs_arr)

    def answer(self, kind: str, ps: Any = None, qs: Any = None) -> Any:
        """Answer one request on the caller's thread.

        The path every served request takes (HTTP JSON and wire frames
        alike, see :mod:`repro.serve.prefork`): validation, LRU cache,
        masking semantics, then one engine call on a miss.  Raises
        ``ValueError``/``IndexError`` on malformed input (the caller's
        fault, HTTP 400).  A cache miss that finds ``max_queue`` calls
        already in progress sheds with :class:`Overloaded` (503).
        """
        ps_arr, qs_arr, key = self._validate(kind, ps, qs)
        self._counts["requests"] += 1
        size = int(ps_arr.size) if ps_arr is not None else 1
        self._counts["queries"] += size
        self._m_requests.inc()
        self._m_queries.inc(size)
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        with self._lock:
            if self._inflight >= self.max_queue:
                raise self._shed(kind, self._inflight)
            self._inflight += 1
        try:
            if kind == "global":
                if self._global is None:
                    self._global = self._compute(kind, None, None)
                result: Any = self._global
            else:
                result = self._compute(kind, ps_arr, qs_arr)
        finally:
            with self._lock:
                self._inflight -= 1
        self._cache_put(key, result)
        return result

    def start(self) -> "OracleService":
        """Return the service: there is nothing to start.  Its only
        caller is ``benchmarks/e2e/layers.replay_submit``; it goes when
        that calls :meth:`answer`."""
        return self

    def submit(self, kind: str, ps: Any = None, qs: Any = None) -> _Answered:
        """:meth:`answer`, in a handle whose ``wait()`` returns the
        answer; errors raise here.  Its only caller is
        ``benchmarks/e2e/layers.replay_submit``; it goes when that calls
        :meth:`answer`."""
        return _Answered(self.answer(kind, ps, qs))

    def stop(self) -> None:
        """Do nothing: there is nothing to stop.  Its only caller is
        ``benchmarks/e2e/layers.replay_submit``; it goes when that calls
        :meth:`answer`."""

    def _shed(self, kind: str, depth: int) -> Overloaded:
        """Count one shed request (caller holds ``_lock``); the error to raise."""
        self._counts["shed"] += 1
        self._m_shed.inc()
        if self._events.enabled:
            self._events.emit("serve.queue_shed", kind=kind, depth=depth, max_queue=self.max_queue)
        return Overloaded(
            f"queue depth {depth} at max_queue={self.max_queue}; back off and retry"
        )

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------

    def _cache_get(self, key: Optional[tuple]) -> Any:
        if key is None:
            self._counts["misses"] += 1
            self._m_misses.inc()
            return None
        with self._lock:
            if key in self._cache:
                self._cache.move_to_end(key)
                self._counts["hits"] += 1
                self._m_hits.inc()
                return self._cache[key]
        self._counts["misses"] += 1
        self._m_misses.inc()
        return None

    def _cache_put(self, key: Optional[tuple], value: Any) -> None:
        if key is None:
            return
        charge = _entry_bytes(key, value)
        budget = self.cache_budget_bytes
        if charge > budget:
            # Caching it would evict everything and still overrun the budget.
            with self._lock:
                self._counts["oversize"] += 1
            self._m_oversize.inc()
            return
        evicted = 0
        with self._lock:
            old = self._cache.pop(key, None)
            if old is not None:
                self._cache_bytes -= _entry_bytes(key, old)
            self._cache[key] = value
            self._cache_bytes += charge
            while self._cache_bytes > budget:
                self._cache_bytes -= _entry_bytes(*self._cache.popitem(last=False))
                evicted += 1
            self._counts["evictions"] += evicted
            used = self._cache_bytes
        if evicted:
            self._m_evictions.inc(evicted)
            if self._events.enabled:
                self._events.emit(
                    "serve.cache_evicted", entries=evicted, cache_bytes=used, budget=budget
                )

    # ------------------------------------------------------------------
    # Engine
    # ------------------------------------------------------------------

    def _compute(self, kind: str, ps: Optional[np.ndarray], qs: Optional[np.ndarray]) -> Any:
        """One engine call for validated index arrays of ``kind``."""
        self._counts["batches"] += 1
        self._m_batches.inc()
        if kind == "global":
            return int(self.oracle.global_squares())
        if kind == "degree":
            return self.oracle.degrees(ps)
        if kind == "vertex_squares":
            return self.oracle.squares_at_vertices(ps)
        if kind == "edge_squares":
            dia = self.oracle.squares_at_edges(ps, qs, on_invalid="mask")
            self._counts["invalid"] += int((dia == INVALID_SQUARES).sum())
            return dia
        if kind == "wings":
            bounds = self.oracle.wings_at_edges(ps, qs, on_invalid="mask")
            self._counts["invalid"] += int((bounds == INVALID_SQUARES).sum())
            return bounds
        # clustering -- NaN masking delegated to the oracle
        out = self.oracle.clustering_at_edges(ps, qs)
        self._counts["invalid"] += int(np.isnan(out).sum())
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        """:meth:`answer` calls in progress."""
        with self._lock:
            return self._inflight

    def stats(self) -> dict[str, int]:
        """Service tallies: requests/queries served, cache hits/misses,
        evictions and oversize (uncached) answers, shed requests, engine
        calls (``batches``), invalid (masked) slots, and the cache's size
        in entries and charged bytes against its budget."""
        counts = dict(self._counts)
        counts["queue_depth"] = self.queue_depth()
        counts["cache_entries"] = len(self._cache)
        counts["cache_bytes"] = self._cache_bytes
        counts["cache_budget_bytes"] = self.cache_budget_bytes
        return counts
