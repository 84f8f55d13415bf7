"""Structured telemetry events: bounded ring buffer + JSONL flusher.

The third leg of the observability layer (spans = where time went,
metrics = how much happened, **events = what happened, when**).  An
:class:`EventLog` accepts schema-versioned telemetry events — shard
started/completed/retried, block streamed, queue shed, cache eviction —
into a bounded in-memory ring and flushes them to an append-only JSONL
file from a background thread.  One JSON object per line::

    {"schema": "repro.events/1", "run_id": "1a2b3c4d5e6f", "pid": 1234,
     "seq": 17, "t": 1754611200.123, "mono": 8.456,
     "kind": "shard.completed", "index": 3, "entries": 1440}

Design constraints (docs/observability.md):

* **Bounded.**  The ring holds at most ``capacity`` unflushed events;
  when producers outrun the flusher the *oldest* pending events are
  dropped and counted (``dropped``), so a hot loop can never grow the
  process without bound.
* **Crash-safe.**  The file is opened ``O_APPEND`` and every flush is a
  single :func:`os.write` of fully rendered ``\\n``-terminated lines —
  a worker killed between flushes loses at most the unflushed tail and
  can never leave a torn line for ``repro top`` or the CI artifact
  reader to trip over (asserted by the crash/resume drill of
  ``benchmarks/smoke.py``).
* **Cheap when disabled.**  The default process-wide log is
  :data:`NULL_EVENTS`; instrumented call sites pay one attribute read
  and a no-op call.  Gate per-block emission on ``events.enabled`` the
  same way hot paths gate metrics.

:func:`read_events` is the reading half: it parses a JSONL event file,
skipping (or, with ``strict=True``, raising on) torn lines.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import deque
from typing import Any, Optional

__all__ = ["EVENTS_SCHEMA", "EventLog", "NullEventLog", "NULL_EVENTS", "read_events"]

#: Schema tag stamped into every event line (versioned like ``repro.serve/1``).
EVENTS_SCHEMA = "repro.events/1"


class EventLog:
    """Bounded ring of telemetry events with a background JSONL flusher.

    Parameters
    ----------
    path:
        JSONL file to append to.  ``None`` keeps events in memory only
        (``tail()`` still works — useful in tests and embedded use).
    capacity:
        Ring bound on *unflushed* events; beyond it the oldest pending
        events are dropped and tallied in :attr:`dropped`.
    flush_interval:
        Seconds between background flushes.  ``emit`` never blocks on
        I/O; ``flush()`` forces a synchronous drain.
    run_id:
        Correlation id stamped on every event (fresh 12-hex default).
    """

    enabled = True

    def __init__(
        self,
        path: Optional[str | os.PathLike] = None,
        *,
        capacity: int = 4096,
        flush_interval: float = 0.25,
        run_id: Optional[str] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.path = os.fspath(path) if path is not None else None
        self.capacity = capacity
        self.flush_interval = flush_interval
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.dropped = 0
        self._seq = 0
        self._pending: deque[dict[str, Any]] = deque()
        self._recent: deque[dict[str, Any]] = deque(maxlen=min(capacity, 512))
        self._lock = threading.Lock()
        # Serializes drain+write so the background flusher and an
        # explicit flush() can never interleave their batches on disk
        # (each would write complete lines, but out of seq order).
        self._io_lock = threading.Lock()
        self._wake = threading.Event()
        self._closed = False
        self._fd: Optional[int] = None
        self._flusher: Optional[threading.Thread] = None
        if self.path is not None:
            self._fd = os.open(self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> dict[str, Any]:
        """Record one event; returns the event dict (already enqueued).

        Never blocks on I/O: the event lands in the ring and the
        background flusher (started lazily) writes it out.  Reserved
        keys (``schema``/``run_id``/``pid``/``seq``/``t``/``mono``/
        ``kind``) cannot be overridden by ``fields``.
        """
        event: dict[str, Any] = {
            "schema": EVENTS_SCHEMA,
            "run_id": self.run_id,
            "pid": os.getpid(),
            "kind": kind,
            "t": time.time(),
            "mono": time.monotonic(),
        }
        for key, value in fields.items():
            if key not in event and key != "seq":
                event[key] = value
        with self._lock:
            if self._closed:
                return event
            event["seq"] = self._seq
            self._seq += 1
            if len(self._pending) >= self.capacity:
                self._pending.popleft()
                self.dropped += 1
            self._pending.append(event)
            self._recent.append(event)
            if self._fd is not None and self._flusher is None:
                self._flusher = threading.Thread(
                    target=self._flush_loop, name="repro-events-flusher", daemon=True
                )
                self._flusher.start()
        self._wake.set()
        return event

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    def _drain(self) -> list[dict[str, Any]]:
        with self._lock:
            batch = list(self._pending)
            self._pending.clear()
        return batch

    def _write(self, batch: list[dict[str, Any]]) -> None:
        if self._fd is None or not batch:
            return
        # One os.write of complete lines per flush: a crash between
        # flushes drops whole events, never half a line.
        data = "".join(
            json.dumps(event, separators=(",", ":"), sort_keys=False) + "\n"
            for event in batch
        ).encode("utf-8")
        os.write(self._fd, data)

    def _flush_loop(self) -> None:
        while True:
            self._wake.wait(self.flush_interval)
            self._wake.clear()
            with self._lock:
                closed = self._closed
            self.flush()
            if closed:
                return

    def flush(self) -> None:
        """Synchronously drain the ring to disk (no-op without a path)."""
        with self._io_lock:
            self._write(self._drain())

    def close(self) -> None:
        """Final flush, stop the flusher, close the file descriptor."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake.set()
        if self._flusher is not None:
            self._flusher.join(timeout=5.0)
        self.flush()
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def tail(self, n: int = 32) -> list[dict[str, Any]]:
        """The most recent ``n`` events (flushed or not), oldest first."""
        with self._lock:
            recent = list(self._recent)
        return recent[-n:]


class NullEventLog:
    """Disabled event log: ``emit`` is a no-op, ``tail`` is empty."""

    __slots__ = ()

    enabled = False
    path = None
    run_id = "null"
    dropped = 0

    def emit(self, kind: str, **fields: Any) -> dict[str, Any]:
        return {}

    def flush(self) -> None:
        return None

    def close(self) -> None:
        return None

    def tail(self, n: int = 32) -> list[dict[str, Any]]:
        return []


NULL_EVENTS = NullEventLog()


def read_events(
    path: str | os.PathLike, *, strict: bool = False
) -> list[dict[str, Any]]:
    """Parse a JSONL event file into a list of event dicts.

    Torn or non-JSON lines are skipped by default (``strict=True``
    raises ``ValueError`` naming the offending line number instead) —
    but note the writer's single-write discipline means torn lines
    indicate an unclean copy, not a crashed run.
    """
    events: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                if strict:
                    raise ValueError(f"{path}:{lineno}: torn event line: {exc}") from exc
                continue
            if isinstance(event, dict):
                events.append(event)
            elif strict:
                raise ValueError(f"{path}:{lineno}: event is not a JSON object")
    return events
