"""Process-wide metrics: labeled counters/gauges, bucketed histograms, merging.

The registry is the numeric side of the observability layer (spans are
the temporal side).  Naming convention (docs/observability.md):
``<area>.<noun>_<unit>`` with plain totals left unprefixed when they
are the headline number of the run (``edges_streamed_total``).

**Labels.**  Every metric accessor takes optional keyword labels —
``counter("serve.http.responses_total", status="400")`` — and each
distinct ``(name, labels)`` combination is its own series.  Snapshots
key series by their Prometheus-style *series key*
(``name{status="400"}``, label keys sorted); :func:`parse_series_key`
recovers the structured form, which is what the exposition layer
(:mod:`repro.obs.prom`) and snapshot merging use.

**Histograms.**  :class:`Histogram` keeps exact count/sum/min/max *and*
a fixed log-spaced bucket vector (:data:`HISTOGRAM_BUCKET_BOUNDS`,
shared by every histogram in every process).  Because the boundaries
are global constants, worker snapshots merge *exactly* — merging the
bucket vectors of two histograms equals the bucket vector of observing
both streams into one histogram — which is what makes the reported
p50/p90/p99 quantile estimates meaningful after a
``ProcessPoolExecutor`` snapshot-merge.

``ProcessPoolExecutor`` paths cannot share a registry across process
boundaries, so workers build a *local* :class:`MetricsRegistry`, return
``registry.snapshot()`` next to their payload, and the parent folds the
snapshots in with :meth:`MetricsRegistry.merge_snapshot` (counters add,
gauges last-write-wins, histograms pool moments and add buckets).  See
:mod:`repro.parallel.generate` for the pattern in use.

Disabled instrumentation uses :data:`NULL_REGISTRY`: ``counter()`` /
``gauge()`` / ``histogram()`` hand back a shared no-op metric, so hot
paths pay one method call and no allocation.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Iterable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HISTOGRAM_BUCKET_BOUNDS",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "merge_snapshots",
    "series_key",
    "parse_series_key",
]


# ----------------------------------------------------------------------
# Series keys (name + labels <-> flat snapshot key)
# ----------------------------------------------------------------------

_LABEL_RE = re.compile(r'(\w[\w.]*)="((?:[^"\\]|\\.)*)"')
_KEY_RE = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")


_UNESCAPE_RE = re.compile(r"\\(.)")


def _escape_label(value: Any) -> str:
    # Newlines are escaped too so a series key is always one line (the
    # key regexes and the Prometheus renderer both rely on this).
    return (
        str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_label(value: str) -> str:
    return _UNESCAPE_RE.sub(lambda m: "\n" if m.group(1) == "n" else m.group(1), value)


def series_key(name: str, labels: Optional[dict[str, Any]] = None) -> str:
    """The flat snapshot key for one series: ``name`` or ``name{k="v"}``.

    Label keys are sorted, so the key is canonical — the same
    ``(name, labels)`` pair always produces the same string, in every
    process (the property snapshot merging relies on).
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def parse_series_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`series_key`: ``'a{b="c"}'`` → ``('a', {'b': 'c'})``."""
    m = _KEY_RE.match(key)
    if m is None:  # pragma: no cover - _KEY_RE matches any non-empty string
        return key, {}
    raw = m.group("labels")
    if raw is None:
        return m.group("name"), {}
    labels = {k: _unescape_label(v) for k, v in _LABEL_RE.findall(raw)}
    return m.group("name"), labels


# ----------------------------------------------------------------------
# Metric kinds
# ----------------------------------------------------------------------


class Counter:
    """Monotonically increasing integer metric (optionally labeled)."""

    __slots__ = ("name", "labels", "key", "value", "_lock")

    def __init__(self, name: str, labels: Optional[dict[str, Any]] = None):
        self.name = name
        self.labels = dict(labels or {})
        self.key = series_key(name, self.labels)
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """Last-written value metric (e.g. a size or a configuration knob)."""

    __slots__ = ("name", "labels", "key", "value", "_lock")

    def __init__(self, name: str, labels: Optional[dict[str, Any]] = None):
        self.name = name
        self.labels = dict(labels or {})
        self.key = series_key(name, self.labels)
        self.value: float | int | None = None
        self._lock = threading.Lock()

    def set(self, value: float | int) -> None:
        with self._lock:
            self.value = value


def _bucket_bounds() -> tuple[float, ...]:
    """Fixed log-spaced upper bounds: 3 per decade over [1e-9, 1e12].

    Global constants (not per-histogram) on purpose: every histogram in
    every process shares them, so bucket vectors add exactly under
    snapshot merging — no ad-hoc boundary reconciliation, ever.
    """
    bounds = []
    for e3 in range(_LOW_EXP * _PER_DECADE, _HIGH_EXP * _PER_DECADE + 1):
        bounds.append(10.0 ** (e3 / _PER_DECADE))
    return tuple(bounds)


_PER_DECADE = 3
_LOW_EXP = -9
_HIGH_EXP = 12

#: Shared histogram bucket upper bounds (the last bucket, index
#: ``len(HISTOGRAM_BUCKET_BOUNDS)``, is the +inf overflow bucket).
HISTOGRAM_BUCKET_BOUNDS: tuple[float, ...] = _bucket_bounds()

_N_BUCKETS = len(HISTOGRAM_BUCKET_BOUNDS) + 1  # + overflow
_LOG_OFFSET = -_LOW_EXP * _PER_DECADE


def _bucket_index(value: float) -> int:
    """Index of the first bucket whose upper bound is >= ``value``."""
    if value <= HISTOGRAM_BUCKET_BOUNDS[0]:
        return 0
    if value > HISTOGRAM_BUCKET_BOUNDS[-1]:
        return _N_BUCKETS - 1
    # ceil(log10(v) * 3) + offset; the epsilon nudge keeps exact bucket
    # boundaries (1.0, 10.0, ...) in their own bucket despite float log
    # rounding either way.
    idx = math.ceil(math.log10(value) * _PER_DECADE - 1e-9) + _LOG_OFFSET
    idx = max(0, min(idx, _N_BUCKETS - 1))
    # log10 rounding can land one bucket off near boundaries; fix up.
    while idx > 0 and value <= HISTOGRAM_BUCKET_BOUNDS[idx - 1]:
        idx -= 1
    while idx < _N_BUCKETS - 1 and value > HISTOGRAM_BUCKET_BOUNDS[idx]:
        idx += 1
    return idx


class Histogram:
    """Streaming summary: exact moments + fixed log-spaced buckets.

    count / sum / min / max are exact; the bucket vector (shared global
    boundaries :data:`HISTOGRAM_BUCKET_BOUNDS`) supports merge-exact
    p50/p90/p99 estimates — quantiles are interpolated log-linearly
    inside the bucket that crosses the target rank, then clamped to the
    exact [min, max] envelope.
    """

    __slots__ = ("name", "labels", "key", "count", "sum", "min", "max", "_buckets", "_lock")

    def __init__(self, name: str, labels: Optional[dict[str, Any]] = None):
        self.name = name
        self.labels = dict(labels or {})
        self.key = series_key(name, self.labels)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets: dict[int, int] = {}
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = _bucket_index(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self._buckets[idx] = self._buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def buckets(self) -> dict[int, int]:
        """Sparse bucket counts (index into the global bounds → count)."""
        with self._lock:
            return dict(self._buckets)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 < q <= 1``) from the buckets."""
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for idx in sorted(self._buckets):
            n = self._buckets[idx]
            seen += n
            if seen >= target:
                lo = HISTOGRAM_BUCKET_BOUNDS[idx - 1] if idx > 0 else None
                hi = (
                    HISTOGRAM_BUCKET_BOUNDS[idx]
                    if idx < _N_BUCKETS - 1
                    else self.max
                )
                if lo is None or lo <= 0 or hi <= 0:
                    est = hi
                else:
                    # log-linear interpolation of the within-bucket rank
                    frac = 1.0 - (seen - target) / n
                    est = 10 ** (math.log10(lo) + frac * (math.log10(hi) - math.log10(lo)))
                return float(min(max(est, self.min), self.max))
        return float(self.max)  # pragma: no cover - loop always crosses target

    def merge(self, summary: dict[str, Any]) -> None:
        """Fold a snapshot summary (another histogram's) into this one.

        Exact for the moments; exact for the buckets too whenever the
        incoming summary carries them (both sides share the global
        boundaries).  Legacy moments-only summaries still merge their
        moments; their observations just don't contribute to quantiles.
        """
        if not summary.get("count"):
            return
        with self._lock:
            self.count += summary["count"]
            self.sum += summary["sum"]
            self.min = min(self.min, summary["min"])
            self.max = max(self.max, summary["max"])
            for idx, n in summary.get("buckets", {}).items():
                idx = int(idx)
                self._buckets[idx] = self._buckets.get(idx, 0) + int(n)

    def summary(self) -> dict[str, Any]:
        with self._lock:
            if not self.count:
                return {
                    "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0, "buckets": {},
                }
            return {
                "count": self.count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
                "mean": self.sum / self.count,
                "p50": self._quantile_locked(0.50),
                "p90": self._quantile_locked(0.90),
                "p99": self._quantile_locked(0.99),
                # JSON object keys are strings; merge() int()s them back.
                "buckets": {str(i): self._buckets[i] for i in sorted(self._buckets)},
            }


class MetricsRegistry:
    """Get-or-create home for named metric series; snapshot/merge for export.

    Thread-safe: creation is guarded by a registry lock, updates by
    per-metric locks.  Asking twice for the same ``(name, labels)``
    returns the same object; asking for a series already registered as
    a different kind raises ``TypeError`` (metric names are a schema,
    not a namespace).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return True

    def _get_or_create(self, name: str, cls, labels: Optional[dict[str, Any]]):
        key = series_key(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = cls(name, labels)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {key!r} already registered as {type(metric).__name__}, "
                    f"not {cls.__name__}"
                )
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(name, Counter, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(name, Gauge, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get_or_create(name, Histogram, labels)

    # -- export / aggregation -------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict state keyed by series key: the record's ``metrics``."""
        counters: dict[str, int] = {}
        gauges: dict[str, Any] = {}
        histograms: dict[str, dict[str, Any]] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            if isinstance(m, Counter):
                counters[m.key] = m.value
            elif isinstance(m, Gauge):
                gauges[m.key] = m.value
            else:
                histograms[m.key] = m.summary()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge_snapshot(self, snap: dict[str, Any]) -> None:
        """Fold a worker snapshot into this registry.

        Counters add, gauges take the incoming value, histograms pool
        moments and add bucket vectors — exactly the reductions that
        make per-worker measurement order-independent.  Labeled series
        merge into the matching labeled series (keys are canonical).
        """
        for key, value in snap.get("counters", {}).items():
            name, labels = parse_series_key(key)
            self.counter(name, **labels).inc(value)
        for key, value in snap.get("gauges", {}).items():
            if value is not None:
                name, labels = parse_series_key(key)
                self.gauge(name, **labels).set(value)
        for key, s in snap.get("histograms", {}).items():
            name, labels = parse_series_key(key)
            self.histogram(name, **labels).merge(s)


class _NullMetric:
    """Shared no-op counter/gauge/histogram."""

    __slots__ = ()

    name = "null"
    labels: dict[str, Any] = {}
    key = "null"
    value = 0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, n: int = 1) -> None:
        return None

    def set(self, value: float | int) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def buckets(self) -> dict[int, int]:
        return {}

    def quantile(self, q: float) -> float:
        return 0.0

    def merge(self, summary: dict[str, Any]) -> None:
        return None

    def summary(self) -> dict[str, Any]:
        return {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p90": 0.0, "p99": 0.0, "buckets": {},
        }


class NullRegistry:
    """Disabled registry: every metric is the shared no-op metric."""

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str, **labels: Any) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, **labels: Any) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, **labels: Any) -> _NullMetric:
        return _NULL_METRIC

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge_snapshot(self, snap: dict[str, Any]) -> None:
        return None


_NULL_METRIC = _NullMetric()
NULL_REGISTRY = NullRegistry()


def merge_snapshots(snaps: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Reduce worker snapshots into one snapshot (fresh registry)."""
    reg = MetricsRegistry()
    for snap in snaps:
        reg.merge_snapshot(snap)
    return reg.snapshot()
