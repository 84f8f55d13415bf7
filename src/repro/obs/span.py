"""Nested, named, thread-safe tracing spans.

A :class:`Span` is the observability layer's unit of wall-clock
accounting: a reusable context manager measuring elapsed seconds, with
optional attributes (``sp.set(rows=128)``) and span-local counters
(``sp.count("blocks")``).  Used standalone (``with Span() as t:``) it
is the library's plain stopwatch.

A :class:`Tracer` strings spans into per-thread trees: ``tracer.span()``
opens a child of whichever span the *current thread* has open, so
library code can open spans without threading a parent handle through
every call.  Each thread builds its own root list; the tracer merges
them at export time.

Disabled instrumentation goes through :class:`NullTracer` /
:data:`NULL_SPAN`, whose methods are no-ops — hot paths pay one
attribute call per operation and nothing else (the "zero overhead when
disabled" contract tested in ``tests/obs/test_span.py``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterator

__all__ = ["Span", "Tracer", "NullTracer", "NULL_SPAN", "NULL_TRACER"]


class Span:
    """Context manager measuring one named unit of work.

    Example
    -------
    >>> with Span("stream") as sp:
    ...     sp.count("blocks")
    ...     sp.set(edges=42)
    >>> sp.elapsed >= 0.0
    True
    """

    __slots__ = ("name", "attrs", "counters", "children", "status", "start", "elapsed", "_tracer")

    def __init__(self, name: str = "span", _tracer: "Tracer | None" = None, **attrs: Any):
        self.name = name
        self.attrs: dict[str, Any] = dict(attrs)
        self.counters: dict[str, int] = {}
        self.children: list[Span] = []
        self.status = "ok"
        self.start: float | None = None
        self.elapsed: float = 0.0
        self._tracer = _tracer

    # -- context protocol ------------------------------------------------

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.start is None:
            # Explicit raise (not ``assert``) so the guard survives
            # ``python -O``; exiting a never-entered span is a bug.
            raise RuntimeError(f"span {self.name!r} exited without being entered")
        self.elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("exception", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._pop(self)

    # -- enrichment ------------------------------------------------------

    def set(self, **attrs: Any) -> "Span":
        """Attach custom attributes; returns ``self`` for chaining."""
        self.attrs.update(attrs)
        return self

    def count(self, name: str, n: int = 1) -> None:
        """Increment a span-local counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    # -- export ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Recursive plain-dict form (the run-record span schema)."""
        d: dict[str, Any] = {
            "name": self.name,
            "elapsed_s": self.elapsed,
            "status": self.status,
        }
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.counters:
            d["counters"] = dict(self.counters)
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, elapsed={self.elapsed:.6f}s)"


class Tracer:
    """Collects spans into per-thread trees.

    ``tracer.span(name)`` returns a :class:`Span` that, when entered,
    becomes a child of the thread's innermost open span (or a new root).
    The per-thread stack lives in ``threading.local``; the shared root
    list is guarded by a lock, so concurrent threads trace safely.
    """

    def __init__(self) -> None:
        self._roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def enabled(self) -> bool:
        return True

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span parented (on entry) under the current thread's stack."""
        return Span(name, _tracer=self, **attrs)

    # -- stack plumbing (called by Span.__enter__/__exit__) --------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - exotic misuse
            stack.remove(span)

    # -- export ----------------------------------------------------------

    @property
    def current(self) -> Span | None:
        """The current thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def roots(self) -> list[Span]:
        with self._lock:
            return list(self._roots)

    def to_dicts(self) -> list[dict[str, Any]]:
        return [root.to_dict() for root in self.roots()]

    def find(self, name: str) -> Span | None:
        """First span with ``name`` in depth-first root order."""
        for root in self.roots():
            for sp in root.walk():
                if sp.name == name:
                    return sp
        return None


class _NullSpan:
    """Stateless no-op span; a single shared instance serves everyone."""

    __slots__ = ()

    name = "null"
    elapsed = 0.0
    start: float | None = None
    status = "ok"

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def count(self, name: str, n: int = 1) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullSpan()"


class NullTracer:
    """Disabled tracer: every ``span()`` is the shared no-op span."""

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    @property
    def current(self):
        return None

    def roots(self) -> list[Span]:
        return []

    def to_dicts(self) -> list[dict[str, Any]]:
        return []

    def find(self, name: str) -> None:
        return None


NULL_SPAN = _NullSpan()
NULL_TRACER = NullTracer()
