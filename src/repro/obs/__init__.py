"""Structured observability: spans, metrics, events, run records, exposition.

The measurement layer the ROADMAP's scaling work hangs off.  Five
pieces, one switch:

* :mod:`repro.obs.span` — nested, named, thread-safe :class:`Span`
  timing (also the library's plain stopwatch) collected into trees by a
  :class:`Tracer`.
* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  of labeled counters / gauges / fixed-bucket quantile histograms with
  exact snapshot-merge across ``ProcessPoolExecutor`` workers.
* :mod:`repro.obs.events` — a bounded-ring :class:`EventLog` flushing
  schema-versioned JSONL telemetry events (shard lifecycle, retries,
  queue shed, cache eviction) that ``repro top`` tails live.
* :mod:`repro.obs.record` — exporters: a human console tree and a
  JSON *run record* (run id, git rev, config, env, spans, metrics)
  that the benchmark harness persists as ``BENCH_<name>.json``.
* :mod:`repro.obs.prom` — Prometheus text exposition + scrape-format
  lint behind ``repro serve``'s ``/metrics?format=prometheus``.

Instrumentation is **off by default**: :func:`get_tracer` /
:func:`get_metrics` / :func:`get_events` return null implementations
whose methods are no-ops, so the instrumented hot paths (streaming,
oracle, parallel) cost nothing extra in correctness runs.  Turn it on
with the scoped :func:`instrument` / :func:`events_to` context managers
(what the CLI's ``--profile`` / ``--metrics-out`` / ``--events-out``
flags do) or process-wide :func:`enable`.  The one exception is
``repro serve``, which installs a live registry unconditionally —
production serving must be observable without a restart.

Naming conventions and the record schema live in docs/observability.md.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Span": ".span",
    "Tracer": ".span",
    "NullTracer": ".span",
    "NULL_SPAN": ".span",
    "NULL_TRACER": ".span",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "NullRegistry": ".metrics",
    "NULL_REGISTRY": ".metrics",
    "HISTOGRAM_BUCKET_BOUNDS": ".metrics",
    "merge_snapshots": ".metrics",
    "series_key": ".metrics",
    "parse_series_key": ".metrics",
    "EventLog": ".events",
    "NullEventLog": ".events",
    "NULL_EVENTS": ".events",
    "EVENTS_SCHEMA": ".events",
    "read_events": ".events",
    "render_prometheus": ".prom",
    "lint_exposition": ".prom",
    "SCHEMA_VERSION": ".record",
    "build_run_record": ".record",
    "collect_env": ".record",
    "git_revision": ".record",
    "load_run_record": ".record",
    "render_run_record": ".record",
    "validate_run_record": ".record",
    "write_run_record": ".record",
    "get_tracer": ".runtime",
    "get_metrics": ".runtime",
    "get_events": ".runtime",
    "instrument": ".runtime",
    "events_to": ".runtime",
    "enable": ".runtime",
    "disable": ".runtime",
    "is_enabled": ".runtime",
})
