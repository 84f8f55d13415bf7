"""``repro top`` — live console dashboard over telemetry.

Two sources, one renderer:

* **Event-log mode** (``--events PATH``): tail the JSONL file written
  by ``--events-out`` (incremental reads from the last byte offset, so
  following a multi-gigabyte log costs only the new lines) and fold the
  events into a :class:`TopState` — per-shard progress, entry/byte
  tallies, retry/failure counters, streamed blocks, serve-side
  shed/eviction counts, and an edges/sec + ETA estimate from the event
  timestamps.
* **URL mode** (``--url http://host:port``): poll a running
  ``repro serve``'s JSON ``/metrics`` endpoint and show the service
  tallies plus latency quantiles from the labeled histograms.

``--once`` renders a single frame without ANSI control sequences (what
the tests and scripts use); live mode repaints the screen every
``--interval`` seconds until ``--duration`` elapses or Ctrl-C.

Torn tails are a non-issue by construction — the :class:`EventLog`
writer emits whole lines per ``os.write`` — but the tailer still keeps
any trailing partial line buffered until its newline arrives, so it is
safe against logs copied mid-flush.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["TopState", "EventTailer", "aggregate_events", "render_dashboard", "run_top"]

_CLEAR = "\x1b[2J\x1b[H"


@dataclass
class TopState:
    """Rolling aggregate of one run's telemetry events."""

    run_id: Optional[str] = None
    n_shards: int = 0
    total_entries: int = 0
    planned_at: Optional[float] = None  # mono timestamp of shards.planned
    completed: dict[int, dict[str, Any]] = field(default_factory=dict)
    skipped: set[int] = field(default_factory=set)
    entries_done: int = 0
    bytes_done: int = 0
    retries: int = 0
    failures: int = 0
    exhausted: int = 0
    stream_blocks: int = 0
    stream_edges: int = 0
    shed: int = 0
    cache_evictions: int = 0
    finished: bool = False
    last_mono: Optional[float] = None
    n_events: int = 0
    recent: list[dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------

    def ingest(self, event: dict[str, Any]) -> None:
        kind = event.get("kind")
        if not kind:
            return
        self.n_events += 1
        self.run_id = event.get("run_id", self.run_id)
        mono = event.get("mono")
        if isinstance(mono, (int, float)):
            self.last_mono = mono
        self.recent.append(event)
        del self.recent[:-8]
        if kind == "shards.planned":
            # A fresh plan supersedes the previous run: the same log can
            # hold a crashed run followed by its --resume, and the
            # dashboard should show the latest run's progress.
            self.n_shards = int(event.get("n_shards", 0))
            self.total_entries = int(event.get("total_entries", 0))
            self.completed.clear()
            self.skipped.clear()
            self.entries_done = 0
            self.bytes_done = 0
            self.retries = 0
            self.failures = 0
            self.exhausted = 0
            self.finished = False
            if isinstance(mono, (int, float)):
                self.planned_at = mono
        elif kind == "shard.skipped":
            index = event.get("index")
            if index is not None:
                self.skipped.add(int(index))
                self.entries_done += int(event.get("entries", 0))
        elif kind == "shard.completed":
            index = event.get("index")
            if index is not None and int(index) not in self.completed:
                self.completed[int(index)] = event
                self.entries_done += int(event.get("entries", 0))
                self.bytes_done += int(event.get("bytes", 0))
        elif kind == "shards.finished":
            self.finished = True
        elif kind == "task.retried":
            self.retries += 1
        elif kind == "task.failed":
            self.failures += 1
        elif kind == "task.budget_exhausted":
            self.exhausted += 1
        elif kind == "stream.block":
            self.stream_blocks += 1
            self.stream_edges += int(event.get("edges", 0))
        elif kind == "serve.queue_shed":
            self.shed += 1
        elif kind == "serve.cache_evicted":
            self.cache_evictions += int(event.get("entries", 1))

    # ------------------------------------------------------------------

    @property
    def shards_done(self) -> int:
        return len(self.completed) + len(self.skipped)

    def rate(self) -> Optional[float]:
        """Entries/sec over the observed window (event monotonic clocks)."""
        if self.planned_at is None or self.last_mono is None:
            return None
        elapsed = self.last_mono - self.planned_at
        if elapsed <= 0 or not self.entries_done:
            return None
        return self.entries_done / elapsed

    def eta_s(self) -> Optional[float]:
        rate = self.rate()
        if rate is None or not self.total_entries:
            return None
        remaining = max(0, self.total_entries - self.entries_done)
        return remaining / rate


def aggregate_events(events: list[dict[str, Any]]) -> TopState:
    """Fold a full event list into a :class:`TopState` (tests, --once)."""
    state = TopState()
    for event in events:
        state.ingest(event)
    return state


class EventTailer:
    """Incremental JSONL reader: only new bytes are read per poll."""

    def __init__(self, path: str):
        self.path = path
        self._offset = 0
        self._partial = ""

    def poll(self) -> list[dict[str, Any]]:
        """Complete events appended since the previous call."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
                self._offset = fh.tell()
        except FileNotFoundError:
            return []
        if not chunk:
            return []
        text = self._partial + chunk
        lines = text.split("\n")
        self._partial = lines.pop()  # "" when the chunk ended on a newline
        events = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict):
                events.append(event)
        return events


def _bar(fraction: float, width: int = 32) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _fmt_duration(seconds: float) -> str:
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def render_dashboard(state: TopState, source: str) -> str:
    """One text frame of the dashboard (no ANSI; caller adds clearing)."""
    lines = [f"repro top — {source}"]
    if state.run_id:
        lines[0] += f"  (run {state.run_id})"
    if state.n_shards:
        frac = state.shards_done / state.n_shards
        entry_note = ""
        if state.total_entries:
            entry_note = f"  {state.entries_done:,}/{state.total_entries:,} entries"
        lines.append(
            f"shards   {_bar(frac)} {state.shards_done}/{state.n_shards}"
            f"{entry_note}"
        )
        done = " done" if state.finished else ""
        rate = state.rate()
        if rate is not None:
            eta = state.eta_s()
            eta_note = (
                ""
                if eta is None or state.finished
                else f"  eta {_fmt_duration(eta)}"
            )
            lines.append(f"rate     {rate:,.0f} entries/s{eta_note}{done}")
        elif done:
            lines.append(f"rate     -{done}")
    if state.stream_blocks:
        lines.append(
            f"stream   {state.stream_blocks:,} blocks, {state.stream_edges:,} edges"
        )
    lines.append(
        f"faults   {state.retries} retried, {state.failures} failed, "
        f"{state.exhausted} exhausted"
    )
    if state.shed or state.cache_evictions:
        lines.append(
            f"serve    {state.shed} shed, {state.cache_evictions} cache evictions"
        )
    lines.append(f"events   {state.n_events:,} ingested")
    if state.recent:
        lines.append("recent:")
        for event in state.recent[-5:]:
            extras = {
                k: v
                for k, v in event.items()
                if k not in ("schema", "run_id", "pid", "kind", "t", "mono", "seq")
            }
            detail = " ".join(f"{k}={v}" for k, v in extras.items())
            lines.append(f"  {event.get('kind', '?'):<24} {detail}".rstrip())
    return "\n".join(lines)


#: Served series ``repro top --url`` lists: latency quantiles per
#: front end, then response and failure counters.
_LATENCY_SERIES = ("serve.http.latency", "serve.wire.latency")
_COUNTER_SERIES = (
    "serve.http.responses",
    "serve.wire.responses",
    "serve.connection_errors",
    "serve.internal_errors",
)


def _poll_url(url: str) -> str:
    """One frame from a served /metrics JSON snapshot."""
    from urllib.request import urlopen

    with urlopen(url.rstrip("/") + "/metrics", timeout=5.0) as resp:
        body = json.loads(resp.read().decode("utf-8"))
    service = body.get("service", {})
    metrics = body.get("metrics", {})
    lines = [f"repro top — {url}"]
    lines.append(
        "serve    "
        + ", ".join(f"{k}={service[k]:,}" for k in sorted(service))
    )
    histograms = metrics.get("histograms", {})
    latency = {key: s for key, s in histograms.items() if key.startswith(_LATENCY_SERIES)}
    for key in sorted(latency):
        s = latency[key]
        if not s.get("count"):
            continue
        p50 = s.get("p50")
        p99 = s.get("p99")
        quant = (
            f" p50={p50 * 1e3:.2f}ms p99={p99 * 1e3:.2f}ms"
            if p50 is not None and p99 is not None
            else ""
        )
        lines.append(f"  {key:<56} n={s['count']}{quant}")
    counters = metrics.get("counters", {})
    for key in sorted(k for k in counters if k.startswith(_COUNTER_SERIES)):
        lines.append(f"  {key:<56} {counters[key]:,}")
    return "\n".join(lines)


def run_top(
    *,
    events: Optional[str] = None,
    url: Optional[str] = None,
    interval: float = 1.0,
    once: bool = False,
    duration: Optional[float] = None,
    file=None,
) -> int:
    """Drive the dashboard loop; returns a process exit code."""
    out = file or sys.stdout
    deadline = None if duration is None else time.monotonic() + duration
    state = TopState()
    tailer = EventTailer(events) if events is not None else None

    def frame() -> str:
        if tailer is not None:
            for event in tailer.poll():
                state.ingest(event)
            return render_dashboard(state, source=str(events))
        assert url is not None
        return _poll_url(url)

    try:
        if once:
            print(frame(), file=out)
            return 0
        while True:
            text = frame()
            print(f"{_CLEAR}{text}", file=out, flush=True)
            if deadline is not None and time.monotonic() >= deadline:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
