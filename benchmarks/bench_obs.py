"""Bench ``obs``: telemetry must stay cheap enough to leave on.

Three rows, each a standing contract:

* **Instrumentation overhead** — the ground-truth streaming hot
  path (``stream_edges(attach_ground_truth=True)``) timed under the
  null registry vs a live one, in interleaved pairs.  The median
  per-pair enabled-vs-null slowdown must stay within 5% (asserted here
  in full mode, enforced across PRs by the ``compare.py`` gate on the
  best-of throughput fields).
* **Histogram throughput** — labeled ``observe()`` and worker
  snapshot-merge rates for the fixed-bucket quantile histograms, with
  the merge-identity property (merge of per-worker snapshots equals
  observe-all) asserted before the row records.
* **Event-log throughput** — ``emit()``+flush rate of the bounded ring
  JSONL writer, with every flushed line re-parsed before recording.

Run standalone: ``python -m pytest benchmarks/bench_obs.py -q``
(``REPRO_BENCH_QUICK=1`` for the CI smoke variant).
"""

from __future__ import annotations

import json
import os
import statistics

from repro.kronecker import stream_edges
from repro.obs import EventLog, MetricsRegistry, Span, instrument

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
STREAM_REPEATS = 3 if QUICK else 5
N_OBSERVE = 20_000 if QUICK else 400_000
N_WORKERS = 8
N_EVENTS = 2_000 if QUICK else 50_000


def _consume_stream(bk) -> int:
    edges = 0
    for p, _q, _dia in stream_edges(bk, attach_ground_truth=True):
        edges += p.size
    return edges


def _timed_stream(bk, enabled: bool) -> tuple[float, int]:
    """One full ground-truth streaming pass under the null registry, or
    under a live one whose edge counter must match what was streamed."""
    if not enabled:
        with Span() as t:
            edges = _consume_stream(bk)
        return t.elapsed, edges
    with instrument() as (_tracer, metrics):
        with Span() as t:
            edges = _consume_stream(bk)
        assert metrics.counter("edges_streamed_total").value == edges
    return t.elapsed, edges


def test_stream_overhead_enabled_vs_null(unicode_product, record_bench):
    """Enabled-vs-null registry on the ground-truth streaming hot path.

    The passes run as ``STREAM_REPEATS`` interleaved null/enabled pairs,
    alternating which side goes first, so warm-up and drift fall on both
    sides alike; the overhead is the median of the per-pair ratios.
    """
    null, enabled, ratios = [], [], []
    edges = None
    for pair in range(STREAM_REPEATS):
        order = (False, True) if pair % 2 == 0 else (True, False)
        seconds = {}
        for live in order:
            seconds[live], streamed = _timed_stream(unicode_product, live)
            assert edges in (None, streamed)
            edges = streamed
        null.append(seconds[False])
        enabled.append(seconds[True])
        ratios.append(seconds[True] / seconds[False])
    null_seconds, enabled_seconds = min(null), min(enabled)
    overhead = statistics.median(ratios) - 1.0
    if not QUICK:
        # The telemetry contract: leaving metrics on costs <= 5% here.
        assert overhead <= 0.05, (
            f"instrumentation overhead {overhead:.1%} (median of {STREAM_REPEATS} pairs) "
            f"exceeds the 5% budget (best null {null_seconds:.4f}s, "
            f"best enabled {enabled_seconds:.4f}s)"
        )
    record_bench(
        f"{edges:,} gt edges: null {edges / null_seconds:,.0f}/s, "
        f"enabled {edges / enabled_seconds:,.0f}/s ({overhead:+.1%})",
        edges=edges,
        null_edges_per_s=edges / null_seconds,
        enabled_edges_per_s=edges / enabled_seconds,
        overhead_pct=overhead * 100.0,
    )


def test_histogram_observe_and_merge_throughput(record_bench):
    """Labeled bucketed-histogram observe + exact snapshot-merge rates."""
    reg = MetricsRegistry()
    h = reg.histogram("bench.latency_s", worker="0")
    scale = 1.0 / N_OBSERVE
    with Span() as t_observe:
        for i in range(N_OBSERVE):
            h.observe(i * scale + 1e-6)
    observe_per_s = N_OBSERVE / t_observe.elapsed

    # Worker-merge path: N_WORKERS snapshots folded into a parent, then
    # the identity check (merged == observe-all) before the row records.
    per_worker = N_OBSERVE // N_WORKERS
    snapshots = []
    direct = MetricsRegistry()
    for w in range(N_WORKERS):
        worker = MetricsRegistry()
        hw = worker.histogram("bench.latency_s")
        for i in range(w * per_worker, (w + 1) * per_worker):
            value = i * scale + 1e-6
            hw.observe(value)
            direct.histogram("bench.latency_s").observe(value)
        snapshots.append(worker.snapshot())
    parent = MetricsRegistry()
    with Span() as t_merge:
        for snap in snapshots:
            parent.merge_snapshot(snap)
    merged = parent.histogram("bench.latency_s").summary()
    expected = direct.histogram("bench.latency_s").summary()
    assert merged["buckets"] == expected["buckets"]
    assert (merged["count"], merged["min"], merged["max"]) == (
        expected["count"],
        expected["min"],
        expected["max"],
    )
    merges_per_s = len(snapshots) / t_merge.elapsed
    record_bench(
        f"{N_OBSERVE:,} observes at {observe_per_s:,.0f}/s; "
        f"{len(snapshots)} worker merges at {merges_per_s:,.0f}/s (identity ok)",
        observes=N_OBSERVE,
        observe_per_s=observe_per_s,
        merge_per_s=merges_per_s,
        p50=merged["p50"],
        p99=merged["p99"],
    )


def test_event_log_emit_flush_throughput(tmp_path, record_bench):
    """Bounded-ring JSONL event emission + flush, then re-parse everything."""
    path = tmp_path / "events.jsonl"
    with Span() as t:
        with EventLog(path, capacity=N_EVENTS + 1, flush_interval=10.0) as log:
            for i in range(N_EVENTS):
                log.emit("bench.tick", index=i, payload="x" * 16)
            log.flush()
    emit_per_s = N_EVENTS / t.elapsed
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == N_EVENTS
    # Integrity: every flushed line parses, sequence numbers are intact.
    seqs = [json.loads(line)["seq"] for line in lines]
    assert seqs == list(range(N_EVENTS))
    record_bench(
        f"{N_EVENTS:,} events emitted+flushed at {emit_per_s:,.0f}/s "
        f"({os.path.getsize(path):,} bytes, 0 dropped)",
        events=N_EVENTS,
        emit_per_s=emit_per_s,
        bytes=os.path.getsize(path),
        dropped=log.dropped,
    )
