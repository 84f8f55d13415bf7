"""``repro top``: event aggregation, incremental tailing, dashboard frames."""

import json

import pytest

from repro.cli import main
from repro.obs import read_events
from repro.obs.top import EventTailer, TopState, aggregate_events, render_dashboard


def _event(kind, **fields):
    base = {"schema": "repro.events/1", "run_id": "deadbeef0000", "pid": 1,
            "seq": 0, "t": 0.0, "mono": 0.0, "kind": kind}
    base.update(fields)
    return base


class TestTopState:
    def test_shard_lifecycle(self):
        state = aggregate_events(
            [
                _event("shards.planned", n_shards=4, total_entries=400, mono=10.0),
                _event("shard.skipped", index=0, entries=100),
                _event("shard.completed", index=1, entries=100, bytes=1024, mono=12.0),
                _event("shard.completed", index=2, entries=100, bytes=2048, mono=14.0),
            ]
        )
        assert state.n_shards == 4
        assert state.shards_done == 3
        assert state.entries_done == 300
        assert state.bytes_done == 3072
        assert not state.finished
        # 300 entries over 4 monotonic seconds.
        assert state.rate() == pytest.approx(75.0)
        assert state.eta_s() == pytest.approx(100 / 75.0)

    def test_duplicate_completion_counted_once(self):
        state = aggregate_events(
            [
                _event("shards.planned", n_shards=2, total_entries=20),
                _event("shard.completed", index=0, entries=10),
                _event("shard.completed", index=0, entries=10),
            ]
        )
        assert state.shards_done == 1
        assert state.entries_done == 10

    def test_fault_and_serve_counters(self):
        state = aggregate_events(
            [
                _event("task.failed", key=0),
                _event("task.retried", key=0),
                _event("task.budget_exhausted", key=0),
                _event("serve.queue_shed", depth=9),
                _event("serve.cache_evicted", entries=3),
                _event("stream.block", edges=500),
                _event("stream.block", edges=250),
            ]
        )
        assert (state.failures, state.retries, state.exhausted) == (1, 1, 1)
        assert state.shed == 1 and state.cache_evictions == 3
        assert state.stream_blocks == 2 and state.stream_edges == 750

    def test_finished_run_has_no_eta(self):
        state = aggregate_events(
            [
                _event("shards.planned", n_shards=1, total_entries=10, mono=0.0),
                _event("shard.completed", index=0, entries=10, mono=1.0),
                _event("shards.finished", written=1, skipped=0),
            ]
        )
        assert state.finished
        frame = render_dashboard(state, source="x")
        assert "done" in frame and "eta" not in frame


class TestEventTailer:
    def test_incremental_reads(self, tmp_path):
        path = tmp_path / "e.jsonl"
        tailer = EventTailer(str(path))
        assert tailer.poll() == []  # missing file is fine
        with open(path, "a") as fh:
            fh.write(json.dumps(_event("a")) + "\n")
        assert [e["kind"] for e in tailer.poll()] == ["a"]
        assert tailer.poll() == []  # nothing new
        with open(path, "a") as fh:
            fh.write(json.dumps(_event("b")) + "\n" + json.dumps(_event("c")) + "\n")
        assert [e["kind"] for e in tailer.poll()] == ["b", "c"]

    def test_partial_line_buffered_until_newline(self, tmp_path):
        path = tmp_path / "e.jsonl"
        line = json.dumps(_event("whole"))
        path.write_text(line[:10])  # torn mid-copy
        tailer = EventTailer(str(path))
        assert tailer.poll() == []
        with open(path, "a") as fh:
            fh.write(line[10:] + "\n")
        assert [e["kind"] for e in tailer.poll()] == ["whole"]

    def test_garbage_lines_skipped(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("garbage\n" + json.dumps(_event("ok")) + "\n[1]\n")
        assert [e["kind"] for e in EventTailer(str(path)).poll()] == ["ok"]


class TestDashboard:
    def test_progress_bar_and_counters(self):
        state = aggregate_events(
            [
                _event("shards.planned", n_shards=4, total_entries=400, mono=0.0),
                _event("shard.completed", index=0, entries=100, bytes=10, mono=1.0),
                _event("shard.completed", index=1, entries=100, bytes=10, mono=2.0),
                _event("task.retried", key=3),
            ]
        )
        frame = render_dashboard(state, source="run.jsonl")
        assert "run deadbeef0000" in frame
        assert "2/4" in frame
        assert "200/400 entries" in frame
        assert "[################----------------]" in frame
        assert "1 retried" in frame
        assert "recent:" in frame

    def test_empty_state_still_renders(self):
        frame = render_dashboard(TopState(), source="nothing.jsonl")
        assert "repro top" in frame
        assert "0 retried" in frame


class TestUrl:
    def test_served_frame_lists_wire_and_failure_series(self, monkeypatch):
        """``--url`` lists both fronts' latency quantiles and every
        response and failure counter a served /metrics carries."""
        import io
        import urllib.request

        from repro.obs.top import run_top

        latency = {"count": 4, "p50": 0.0015, "p99": 0.004}
        body = {
            "service": {"requests": 7, "shed": 1},
            "metrics": {
                "histograms": {
                    'serve.http.latency_seconds{endpoint="v1_degree"}': latency,
                    "serve.wire.latency_seconds": latency,
                },
                "counters": {
                    'serve.http.responses_total{endpoint="v1_degree",status="200"}': 3,
                    'serve.wire.responses_total{kind="degree",status="0"}': 4,
                    'serve.connection_errors_total{exc="TimeoutError"}': 2,
                    'serve.internal_errors_total{exc="RuntimeError",front="wire"}': 1,
                    "serve.requests_total": 7,
                },
            },
        }

        class Response(io.BytesIO):
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

        urls = []

        def fake_urlopen(url, timeout):
            urls.append(url)
            return Response(json.dumps(body).encode())

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        out = io.StringIO()
        assert run_top(url="http://127.0.0.1:1/", once=True, file=out) == 0
        frame = out.getvalue()
        assert urls == ["http://127.0.0.1:1/metrics"]
        assert "requests=7, shed=1" in frame
        for key in body["metrics"]["histograms"]:
            assert key in frame
        assert frame.count("p50=1.50ms p99=4.00ms") == 2
        for key, value in body["metrics"]["counters"].items():
            if key.startswith("serve.requests_total"):
                assert key not in frame
            else:
                assert f"{key:<56} {value:,}" in frame


class TestCli:
    def test_top_requires_exactly_one_source(self, capsys):
        assert main(["top"]) == 2
        assert main(["top", "--events", "a", "--url", "http://x"]) == 2
        err = capsys.readouterr().err
        assert "exactly one" in err

    def test_top_once_renders_fault_injected_resume_run(self, tmp_path, capsys):
        """End-to-end acceptance: fault-injected shards --resume run, then
        ``repro top --events ... --once`` shows full shard progress."""
        out_dir = tmp_path / "shards"
        events = tmp_path / "events.jsonl"
        argv_common = [
            "shards", "complete:3", "path:4", "-o", str(out_dir),
            "--shards", "4", "--workers", "2", "--resume",
            "--retries", "4", "--fault-rate", "0.5", "--fault-seed", "7",
            "--events-out", str(events),
        ]
        assert main(argv_common) == 0
        assert main(argv_common) == 0  # resumed run: everything skipped
        capsys.readouterr()

        assert main(["top", "--events", str(events), "--once"]) == 0
        frame = capsys.readouterr().out
        assert "shards   [################################] 4/4" in frame
        assert "events" in frame

        kinds = {e["kind"] for e in read_events(events, strict=True)}
        assert {"shards.planned", "shard.completed", "shards.finished"} <= kinds
        assert "shard.skipped" in kinds  # the resumed run skipped all four

    def test_top_once_on_missing_file_is_graceful(self, tmp_path, capsys):
        assert main(["top", "--events", str(tmp_path / "nope.jsonl"), "--once"]) == 0
        assert "repro top" in capsys.readouterr().out
