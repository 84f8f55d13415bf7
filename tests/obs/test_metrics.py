"""Metrics registry: kinds, snapshots, thread and process aggregation."""

import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    instrument,
    merge_snapshots,
)


def _pool_worker(n: int) -> dict:
    """Worker: do n 'items' of work, return a local metrics snapshot."""
    reg = MetricsRegistry()
    reg.counter("work.items_total").inc(n)
    reg.gauge("work.last_n").set(n)
    reg.histogram("work.item_size").observe(float(n))
    return reg.snapshot()


class TestKinds:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("things_total")
        c.inc()
        c.inc(4)
        assert reg.counter("things_total").value == 5
        assert reg.counter("things_total") is c

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("size").set(10)
        reg.gauge("size").set(7)
        assert reg.gauge("size").value == 7

    def test_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("bytes")
        for v in (2.0, 4.0, 6.0):
            h.observe(v)
        s = h.summary()
        assert (s["count"], s["sum"], s["min"], s["max"], s["mean"]) == (3, 12.0, 2.0, 6.0, 4.0)
        # Bucketed quantiles are estimates, but clamped to the exact range.
        assert 2.0 <= s["p50"] <= s["p90"] <= s["p99"] <= 6.0
        assert sum(s["buckets"].values()) == 3

    def test_histogram_quantiles_land_in_right_decade(self):
        h = MetricsRegistry().histogram("latency_s")
        for _ in range(99):
            h.observe(0.001)
        h.observe(10.0)
        s = h.summary()
        assert 0.0005 < s["p50"] < 0.005
        assert 0.0005 < s["p90"] < 0.005
        assert s["p99"] <= 10.0

    def test_empty_histogram_summary(self):
        assert MetricsRegistry().histogram("h").summary()["count"] == 0

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_labeled_series_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("responses_total", status="200").inc(3)
        reg.counter("responses_total", status="404").inc()
        reg.counter("responses_total").inc(10)
        assert reg.counter("responses_total", status="200").value == 3
        assert reg.counter("responses_total", status="404").value == 1
        assert reg.counter("responses_total").value == 10
        snap = reg.snapshot()
        assert snap["counters"]['responses_total{status="200"}'] == 3
        assert snap["counters"]['responses_total{status="404"}'] == 1
        assert snap["counters"]["responses_total"] == 10

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("c", endpoint="degree", status="200")
        b = reg.counter("c", status="200", endpoint="degree")
        assert a is b

    def test_series_key_round_trip(self):
        from repro.obs import parse_series_key, series_key

        key = series_key("m", {"path": 'a"b\\c', "n": "1"})
        name, labels = parse_series_key(key)
        assert name == "m"
        assert labels == {"path": 'a"b\\c', "n": "1"}
        assert parse_series_key("bare") == ("bare", {})


class TestSnapshotMerge:
    def test_snapshot_sections(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(3.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_merge_adds_counters_pools_histograms(self):
        parent = MetricsRegistry()
        parent.counter("c").inc(1)
        parent.histogram("h").observe(10.0)
        for n in (2, 3):
            worker = MetricsRegistry()
            worker.counter("c").inc(n)
            worker.histogram("h").observe(float(n))
            parent.merge_snapshot(worker.snapshot())
        assert parent.counter("c").value == 6
        s = parent.histogram("h").summary()
        assert (s["count"], s["sum"], s["min"], s["max"]) == (3, 15.0, 2.0, 10.0)

    def test_merge_snapshots_helper(self):
        snaps = [_pool_worker(n) for n in (1, 2, 3)]
        merged = merge_snapshots(snaps)
        assert merged["counters"]["work.items_total"] == 6
        assert merged["histograms"]["work.item_size"]["count"] == 3

    def test_merge_empty_histogram_is_noop(self):
        parent = MetricsRegistry()
        parent.merge_snapshot(MetricsRegistry().snapshot())
        empty = MetricsRegistry()
        empty.histogram("h")  # registered, never observed
        parent.merge_snapshot(empty.snapshot())
        assert parent.histogram("h").summary()["count"] == 0

    def test_merge_preserves_labels(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        worker.counter("rt", status="200").inc(2)
        worker.counter("rt", status="500").inc()
        worker.histogram("lat", endpoint="degree").observe(0.5)
        parent.merge_snapshot(worker.snapshot())
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("rt", status="200").value == 4
        assert parent.counter("rt", status="500").value == 2
        s = parent.histogram("lat", endpoint="degree").summary()
        assert (s["count"], s["min"], s["max"]) == (2, 0.5, 0.5)

    def test_bucketed_merge_identity(self):
        """merge(a, b) must equal observe-all: fixed global buckets merge exactly."""
        import random

        rng = random.Random(20260808)
        values = [rng.lognormvariate(0.0, 3.0) for _ in range(2000)]
        direct = MetricsRegistry()
        merged = MetricsRegistry()
        for v in values:
            direct.histogram("h").observe(v)
        for lo in range(0, len(values), 500):
            worker = MetricsRegistry()
            for v in values[lo : lo + 500]:
                worker.histogram("h").observe(v)
            merged.merge_snapshot(worker.snapshot())
        a = direct.histogram("h").summary()
        b = merged.histogram("h").summary()
        assert a["buckets"] == b["buckets"]
        assert (a["count"], a["min"], a["max"]) == (b["count"], b["min"], b["max"])
        assert a["sum"] == pytest.approx(b["sum"])
        for q in ("p50", "p90", "p99"):
            assert a[q] == pytest.approx(b[q])

    def test_merge_partial_and_empty_worker_snapshots(self):
        parent = MetricsRegistry()
        parent.merge_snapshot({})  # worker died before building anything
        parent.merge_snapshot({"counters": {"c": 1}})  # no gauges/histograms sections
        parent.merge_snapshot({"histograms": {"h": {"count": 0}}})
        assert parent.counter("c").value == 1
        assert parent.histogram("h").summary()["count"] == 0

    def test_merge_legacy_moments_only_summary(self):
        """Pre-bucket snapshots (no 'buckets' key) still pool moments."""
        parent = MetricsRegistry()
        parent.merge_snapshot(
            {"histograms": {"h": {"count": 2, "sum": 6.0, "min": 1.0, "max": 5.0}}}
        )
        s = parent.histogram("h").summary()
        assert (s["count"], s["sum"], s["min"], s["max"]) == (2, 6.0, 1.0, 5.0)

    def test_concurrent_observe_during_snapshot(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                h.observe(1.0)

        workers = [threading.Thread(target=hammer) for _ in range(3)]
        for t in workers:
            t.start()
        try:
            for _ in range(50):
                snap = reg.snapshot()
                s = snap["histograms"]["h"]
                # Every snapshot must be internally consistent: the bucket
                # totals always equal the count captured under the same lock.
                assert sum(s["buckets"].values()) == s["count"]
                assert s["sum"] == pytest.approx(s["count"] * 1.0)
        finally:
            stop.set()
            for t in workers:
                t.join()


class TestProcessPoolAggregation:
    def test_worker_snapshots_merge_across_processes(self):
        parent = MetricsRegistry()
        with ProcessPoolExecutor(max_workers=2) as pool:
            for snap in pool.map(_pool_worker, [5, 7, 9]):
                parent.merge_snapshot(snap)
        assert parent.counter("work.items_total").value == 21
        h = parent.histogram("work.item_size").summary()
        assert (h["count"], h["min"], h["max"]) == (3, 5.0, 9.0)
        assert parent.gauge("work.last_n").value in (5, 7, 9)

    def test_generate_shards_populates_registry(self, tmp_path):
        from repro.generators import cycle_graph, path_graph
        from repro.kronecker import Assumption, make_bipartite_product
        from repro.parallel import generate_chain_shards
        from repro.parallel.generate import load_shards

        bk = make_bipartite_product(cycle_graph(3), path_graph(4), Assumption.NON_BIPARTITE_FACTOR)
        with instrument() as (tracer, metrics):
            paths = generate_chain_shards(
                bk.chain, tmp_path, n_shards=3, n_workers=2
            )
        arrays = load_shards(paths)
        expected = bk.M.nnz * bk.B.graph.nnz
        assert arrays["p"].size == expected
        assert metrics.counter("parallel.generate.entries_total").value == expected
        assert metrics.counter("parallel.generate.shards_total").value == len(paths)
        assert metrics.histogram("parallel.generate.worker_seconds").count == len(paths)
        assert tracer.find("parallel.generate_chain_shards") is not None


class TestThreadSafety:
    def test_concurrent_counter_increments_are_exact(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total")

        def hammer():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestNullRegistry:
    def test_all_noop(self):
        null = NULL_REGISTRY
        null.counter("a").inc(10)
        null.gauge("b").set(1)
        null.histogram("c").observe(2.0)
        assert null.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        null.merge_snapshot({"counters": {"a": 5}})
        assert null.snapshot()["counters"] == {}
        assert not NullRegistry().enabled
        assert MetricsRegistry().enabled
