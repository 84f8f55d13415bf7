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
  SHA-256 of the index bytes)``, so an entry is charged its answer
  bytes, its 32-byte digest and :data:`ENTRY_OVERHEAD` bytes of key and
  LRU bookkeeping, never a copy of the request.  The cache evicts the
  least recently used entries while the charges exceed ``cache_bytes``;
  an answer whose charge alone exceeds the budget is returned uncached.
* **Backpressure.**  Once ``max_queue`` requests are in progress (or
  queued, for :meth:`submit`), the next one sheds with a typed
  :class:`Overloaded` error (HTTP 503, wire ``STATUS_OVERLOADED``)
  instead of letting latency grow without bound.

In-process callers with many small concurrent requests can instead
:meth:`~OracleService.start` batcher threads and :meth:`submit`: the
queue coalesces up to ``max_batch`` queued query elements into one
kernel pass per kind.  The element-wise kernels make coalesced answers
bit-identical to per-request calls.

Non-edges follow the oracle's ``on_invalid="mask"`` semantics: the
answer array carries :data:`INVALID_SQUARES` (``-1``; ``NaN`` for
clustering) at invalid slots, and the HTTP layer maps any invalid slot
to 422.  See docs/serving.md for tuning guidance.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from hashlib import sha256
from typing import Any, Optional

import numpy as np

from repro.kronecker.oracle import GroundTruthOracle
from repro.obs import get_events, get_metrics

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

#: Bytes charged per cache entry besides its answer and digest: the key
#: tuple, the LRU node with its share of the hash table, and the answer
#: array's header.  ``tracemalloc`` reads 290-395 B per entry (CPython
#: 3.11, numpy 2.4), the spread being how full the LRU's hash table is;
#: at 360 B a full cache's traced memory stays within 1.1x its budget
#: for 1- to 4,096-query answers (tests/serve/test_service.py).
ENTRY_OVERHEAD = 360

_KINDS = ("degree", "vertex_squares", "edge_squares", "clustering", "global", "wings")
_PAIR_KINDS = ("edge_squares", "clustering", "wings")


class Overloaded(RuntimeError):
    """Request shed: ``max_queue`` requests are already in progress or queued.

    The typed load-shedding error -- callers should back off and retry;
    the HTTP layer maps it to 503 with a ``Retry-After`` hint.
    """


def _entry_bytes(key: tuple, value: Any) -> int:
    """Bytes one cache entry is charged: answer, key digest, fixed overhead."""
    return getattr(value, "nbytes", 8) + len(key[2]) + ENTRY_OVERHEAD


class _Request:
    """One queued query batch: inputs, completion event, outcome."""

    __slots__ = ("kind", "ps", "qs", "event", "result", "error", "cache_key")

    def __init__(
        self,
        kind: str,
        ps: Optional[np.ndarray],
        qs: Optional[np.ndarray],
        cache_key: Optional[tuple] = None,
    ):
        self.kind = kind
        self.ps = ps
        self.qs = qs
        self.cache_key = cache_key
        self.event = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None

    @property
    def size(self) -> int:
        return int(self.ps.size) if self.ps is not None else 1

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Block until the worker resolves this request; re-raise its error."""
        if not self.event.wait(timeout):
            raise TimeoutError(f"{self.kind} request not answered within {timeout}s")
        if self.error is not None:
            raise self.error
        return self.result


class OracleService:
    """Concurrent front-end over a ground-truth oracle.

    Parameters
    ----------
    oracle:
        The oracle to serve.
    max_queue:
        Bound on requests in progress in :meth:`answer` (or pending in
        the :meth:`submit` queue); further requests shed with
        :class:`Overloaded`.  ``0`` sheds everything (drill mode).
    max_batch:
        Upper bound on query *elements* coalesced into one kernel pass
        by the :meth:`submit` queue.
    cache_bytes:
        Result-cache budget in bytes, charged per entry by answer bytes
        + digest + :data:`ENTRY_OVERHEAD` (``0`` disables the cache).
    workers:
        Batcher threads started by :meth:`start` for the :meth:`submit`
        queue.  One is enough until kernel time dominates; more let
        independent kinds proceed in parallel.
    """

    def __init__(
        self,
        oracle: GroundTruthOracle,
        *,
        max_queue: int = 1024,
        max_batch: int = 65536,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        workers: int = 1,
    ):
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if cache_bytes < 0:
            raise ValueError(f"cache_bytes must be >= 0, got {cache_bytes}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.oracle = oracle
        self.max_queue = max_queue
        self.max_batch = max(1, max_batch)
        self.cache_budget_bytes = cache_bytes
        self._n_workers = workers
        self._pending: deque[_Request] = deque()
        self._inflight = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = []
        self._stopped = False
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
        self._m_batch_size = metrics.histogram("serve.batch_queries")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "OracleService":
        """Spawn the batcher threads (idempotent)."""
        with self._lock:
            if self._threads:
                return self
            self._stopped = False
            self._threads = [
                threading.Thread(target=self._worker_loop, name=f"oracle-serve-{i}", daemon=True)
                for i in range(self._n_workers)
            ]
        for t in self._threads:
            t.start()
        return self

    def stop(self) -> None:
        """Stop the batchers; pending requests fail with :class:`Overloaded`."""
        with self._lock:
            self._stopped = True
            drained = list(self._pending)
            self._pending.clear()
            self._not_empty.notify_all()
        for req in drained:
            req.error = Overloaded("service stopped before the request was answered")
            req.event.set()
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads = []

    def __enter__(self) -> "OracleService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission
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
        # Native byte order and C order: the cache key hashes the buffer.
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

        The key is ``(kind, n, sha256(ps || qs))`` over the validated
        int64 buffers; pair kinds enforce ``len(ps) == len(qs)``, so
        ``n`` makes the concatenation unambiguous.  ``None`` when the
        cache is off -- nothing is hashed then.
        """
        if kind not in _KINDS:
            raise ValueError(f"unknown query kind {kind!r} (expected one of {_KINDS})")
        if kind == "global":
            return None, None, (("global", 0, b"") if self.cache_budget_bytes else None)
        if ps is None:
            raise ValueError(f"{kind} queries need a ps index list")
        ps_arr = self._coerce(ps, "ps")
        if kind in _PAIR_KINDS:
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
        digest = sha256(ps_arr)
        if qs_arr is not None:
            digest.update(qs_arr)
        return ps_arr, qs_arr, (kind, ps_arr.size, digest.digest())

    def submit(self, kind: str, ps: Any = None, qs: Any = None) -> _Request:
        """Validate, cache-check, and enqueue one request.

        Returns a :class:`_Request` handle whose :meth:`_Request.wait`
        yields the answer.  Raises ``ValueError``/``IndexError``
        synchronously on malformed input (the caller's fault, HTTP 400)
        and :class:`Overloaded` when the queue is saturated (503).
        Cache hits resolve immediately without touching the queue.
        """
        ps_arr, qs_arr, key = self._validate(kind, ps, qs)
        req = _Request(kind, ps_arr, qs_arr, cache_key=key)
        self._counts["requests"] += 1
        self._counts["queries"] += req.size
        self._m_requests.inc()
        self._m_queries.inc(req.size)
        cached = self._cache_get(key)
        if cached is not None:
            req.result = cached
            req.event.set()
            return req
        with self._lock:
            if self._stopped:
                raise Overloaded("service is stopped")
            if len(self._pending) >= self.max_queue:
                raise self._shed(kind, len(self._pending))
            self._pending.append(req)
            self._not_empty.notify()
        return req

    def answer(self, kind: str, ps: Any = None, qs: Any = None) -> Any:
        """Answer one request synchronously on the caller's thread.

        The path every served request takes (HTTP JSON and wire frames
        alike, see :mod:`repro.serve.prefork`): validation, LRU cache,
        masking semantics and request/query/hit/miss tallies shared with
        :meth:`submit`, then one kernel call -- no batcher hand-off, no
        :class:`threading.Event` round trip.  Coalescing is the
        *client's* job on this path (send batched index arrays).  Does
        not require :meth:`start`.  A cache miss that finds
        ``max_queue`` calls already in progress sheds with
        :class:`Overloaded`.
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
                raise self._shed(kind, len(self._pending) + self._inflight)
            self._inflight += 1
        try:
            if kind == "global":
                if self._global is None:
                    self._global = int(self.oracle.global_squares())
                result: Any = self._global
            else:
                result = self._compute(kind, ps_arr, qs_arr)
        finally:
            with self._lock:
                self._inflight -= 1
        self._cache_put(key, result)
        return result

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
    # Batcher
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._not_empty:
                while not self._pending and not self._stopped:
                    self._not_empty.wait()
                if self._stopped and not self._pending:
                    return
                batch: list[_Request] = []
                elements = 0
                while self._pending and elements < self.max_batch:
                    req = self._pending.popleft()
                    batch.append(req)
                    elements += req.size
            self._counts["batches"] += 1
            self._m_batches.inc()
            self._m_batch_size.observe(elements)
            groups: dict[str, list[_Request]] = {}
            for req in batch:
                groups.setdefault(req.kind, []).append(req)
            for kind, reqs in groups.items():
                try:
                    self._execute(kind, reqs)
                except BaseException as exc:  # pragma: no cover - defensive
                    for req in reqs:
                        req.error = exc
                finally:
                    for req in reqs:
                        req.event.set()

    def _compute(self, kind: str, ps: np.ndarray, qs: Optional[np.ndarray]) -> np.ndarray:
        """One engine pass for validated index arrays of ``kind``."""
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

    def _execute(self, kind: str, reqs: list[_Request]) -> None:
        """Answer every request of ``kind`` with one coalesced kernel pass."""
        if kind == "global":
            if self._global is None:
                self._global = int(self.oracle.global_squares())
            for req in reqs:
                req.result = self._global
                self._store(req)
            return
        ps = np.concatenate([req.ps for req in reqs]) if len(reqs) > 1 else reqs[0].ps
        if kind in _PAIR_KINDS:
            qs = np.concatenate([req.qs for req in reqs]) if len(reqs) > 1 else reqs[0].qs
        else:
            qs = None
        out = self._compute(kind, ps, qs)
        offset = 0
        for req in reqs:
            answer = out[offset : offset + req.size]
            # A split batch is copied, so a cached answer never pins the
            # whole batch and ``cache_bytes`` counts what the cache holds.
            req.result = answer.copy() if len(reqs) > 1 else answer
            offset += req.size
            self._store(req)

    def _store(self, req: _Request) -> None:
        if req.cache_key is not None:
            self._cache_put(req.cache_key, req.result)

    # ------------------------------------------------------------------
    # Public query API (synchronous conveniences)
    # ------------------------------------------------------------------

    def degrees(self, ps: Any, timeout: Optional[float] = 30.0) -> np.ndarray:
        """Batched product degrees; coalesced with concurrent requests."""
        return self.submit("degree", ps).wait(timeout)

    def squares_at_vertices(self, ps: Any, timeout: Optional[float] = 30.0) -> np.ndarray:
        """Batched Thm. 3/4 vertex 4-cycle counts."""
        return self.submit("vertex_squares", ps).wait(timeout)

    def squares_at_edges(self, ps: Any, qs: Any, timeout: Optional[float] = 30.0) -> np.ndarray:
        """Batched Thm. 5 edge 4-cycle counts; ``-1`` marks non-edges."""
        return self.submit("edge_squares", ps, qs).wait(timeout)

    def wings_at_edges(self, ps: Any, qs: Any, timeout: Optional[float] = 30.0) -> np.ndarray:
        """Batched Rem. 1 wing upper bounds; ``-1`` marks non-edges."""
        return self.submit("wings", ps, qs).wait(timeout)

    def clustering_at_edges(self, ps: Any, qs: Any, timeout: Optional[float] = 30.0) -> np.ndarray:
        """Batched Def. 10 clustering; ``NaN`` marks out-of-domain pairs."""
        return self.submit("clustering", ps, qs).wait(timeout)

    def global_squares(self, timeout: Optional[float] = 30.0) -> int:
        """Total product 4-cycles (memoized after the first request)."""
        return int(self.submit("global").wait(timeout))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        """Requests pending in the :meth:`submit` queue plus calls in
        progress in :meth:`answer`."""
        with self._lock:
            return len(self._pending) + self._inflight

    def stats(self) -> dict[str, int]:
        """Service tallies: requests/queries served, cache hits/misses,
        evictions and oversize (uncached) answers, shed requests, kernel
        batches, invalid (masked) slots, and the cache's size in entries
        and charged bytes against its budget."""
        counts = dict(self._counts)
        counts["queue_depth"] = self.queue_depth()
        counts["cache_entries"] = len(self._cache)
        counts["cache_bytes"] = self._cache_bytes
        counts["cache_budget_bytes"] = self.cache_budget_bytes
        return counts
