"""Pre-fork front end: dual protocols, mmap page sharing, drain, respawn."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.obs import instrument
from repro.obs.prom import render_prometheus
from repro.serve import PreforkServer, WireClient, save_oracle
from repro.serve.wire import WireServerError, encode_request
from tests.serve.conftest import product_edges
from tests.serve.test_cli_serve import REPO_SRC, _free_port, _wait_for

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="pre-fork serving needs os.fork"
)


@pytest.fixture(scope="module")
def art_dir(oracle_i, tmp_path_factory):
    return save_oracle(oracle_i, tmp_path_factory.mktemp("prefork") / "art")


def _post_json(port: int, path: str, body: dict) -> dict:
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=json.dumps(body).encode()
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())


def _get_json(port: int, path: str) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
        return json.loads(resp.read())


# ----------------------------------------------------------------------
# Dual-protocol round trips, bit-identical to the in-process oracle
# ----------------------------------------------------------------------


def test_both_protocols_bit_identical(art_dir, oracle_i):
    """One port, two protocols, every answer identical to direct calls."""
    ps = np.arange(oracle_i.bk.n, dtype=np.int64)
    ep, eq = product_edges(oracle_i)
    with PreforkServer(art_dir, workers=2, grace=2.0) as server:
        # JSON HTTP path.
        body = _post_json(server.port, "/v1/squares/vertex", {"ps": ps.tolist()})
        assert body["squares"] == oracle_i.squares_at_vertices(ps).tolist()
        assert _get_json(server.port, "/v1/global")["squares"] == oracle_i.global_squares()
        health = _get_json(server.port, "/healthz")
        assert health["status"] == "ok" and health["worker"] in {"0", "1"}
        # Binary wire path on the same port.
        with WireClient("127.0.0.1", server.port) as client:
            assert np.array_equal(client.degrees(ps), oracle_i.degrees(ps))
            assert np.array_equal(
                client.squares_at_edges(ep, eq), oracle_i.squares_at_edges(ep, eq)
            )
            assert np.array_equal(
                client.clustering_at_edges(ep, eq),
                oracle_i.clustering_at_edges(ep, eq),
                equal_nan=True,
            )
            assert client.global_squares() == oracle_i.global_squares()


def test_protocol_json_only_rejects_wire(art_dir):
    with PreforkServer(art_dir, workers=1, protocol="json", grace=2.0) as server:
        assert _get_json(server.port, "/healthz")["status"] == "ok"
        with WireClient("127.0.0.1", server.port) as client:
            with pytest.raises(WireServerError, match="wire protocol disabled"):
                client.degrees([0])


def test_protocol_wire_only_rejects_http(art_dir):
    with PreforkServer(art_dir, workers=1, protocol="wire", grace=2.0) as server:
        with WireClient("127.0.0.1", server.port) as client:
            assert client.degrees([0]).size == 1
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get_json(server.port, "/healthz")
        assert exc.value.code == 403


def test_invalid_construction():
    with pytest.raises(ValueError, match="workers must be"):
        PreforkServer("x", workers=0)
    with pytest.raises(ValueError, match="protocol must be"):
        PreforkServer("x", protocol="grpc")


# ----------------------------------------------------------------------
# mmap page sharing: worker memory stays flat as workers scale
# ----------------------------------------------------------------------


def _npz_mappings(pid: int, npz_name: str) -> list[dict[str, int]]:
    """Parse /proc/<pid>/smaps blocks for mappings of the named file."""
    header = re.compile(r"^[0-9a-f]+-[0-9a-f]+\s+(\S+)\s")
    blocks: list[dict[str, int]] = []
    current: dict[str, int] | None = None
    for line in Path(f"/proc/{pid}/smaps").read_text().splitlines():
        match = header.match(line)
        if match:
            if npz_name in line:
                current = {"writable": int("w" in match.group(1))}
                blocks.append(current)
            else:
                current = None
        elif current is not None and ":" in line:
            key, _, rest = line.partition(":")
            fields = rest.split()
            if len(fields) == 2 and fields[1] == "kB":
                current[key] = int(fields[0])
    return blocks


@pytest.mark.skipif(not Path("/proc/self/smaps").exists(), reason="needs /proc smaps")
def test_worker_memory_flat_mmap_pages_shared(art_dir, oracle_i):
    """Every worker maps oracle.npz read-only with zero private dirty
    pages: the artifact is one page-cache copy shared by the fleet, so
    per-worker RSS stays flat as workers scale."""
    ps = np.arange(oracle_i.bk.n, dtype=np.int64)
    with PreforkServer(art_dir, workers=3, grace=2.0) as server:
        # Touch the arrays in at least one worker so pages are faulted in.
        with WireClient("127.0.0.1", server.port) as client:
            assert np.array_equal(client.degrees(ps), oracle_i.degrees(ps))
        for pid in server._pids.values():
            maps = _npz_mappings(pid, "oracle.npz")
            assert maps, f"worker {pid} has no oracle.npz mapping"
            assert all(not m["writable"] for m in maps)
            assert sum(m.get("Private_Dirty", 0) for m in maps) == 0


# ----------------------------------------------------------------------
# Supervision: respawn, drain, metric merging
# ----------------------------------------------------------------------


def test_crashed_worker_respawns(art_dir):
    with PreforkServer(art_dir, workers=2, grace=2.0) as server:
        victim = server._pids[0]
        os.kill(victim, signal.SIGKILL)
        assert _wait_for(
            lambda: (server.reap_and_respawn() or server.respawns >= 1), timeout=10
        )
        assert len(server._pids) == 2 and server._pids[0] != victim
        assert _get_json(server.port, "/healthz")["status"] == "ok"


def test_stop_merges_worker_metrics_and_tallies(art_dir, oracle_i):
    """Worker obs registries fold into the parent on stop: the shutdown
    stats and the parent snapshot carry every worker's traffic."""
    with instrument() as (_tracer, metrics):
        server = PreforkServer(art_dir, workers=2, grace=2.0).start()
        try:
            _post_json(server.port, "/v1/degree", {"ps": [0]})
            with WireClient("127.0.0.1", server.port) as client:
                client.degrees([0, 1])
                client.global_squares()
        finally:
            stats = server.stop()
        assert stats["workers"] == 2
        assert stats["workers_reported"] == 2
        assert stats["respawns"] == 0
        assert stats["requests"] >= 3
        counters = metrics.snapshot()["counters"]
        assert any(k.startswith("serve.wire.responses_total") for k in counters)
        assert any(k.startswith("serve.http.responses_total") for k in counters)
        # Each worker's state file carries its cache footprint.
        states = [json.loads(p.read_text()) for p in server.state_dir.glob("worker-*.json")]
        assert sum(state["service"]["cache_bytes"] for state in states) > 0


def test_prometheus_worker_labels_never_collide():
    """The same metric scraped from two workers stays two series: the
    const worker label lands inside every sample's label set."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("serve.requests_total").inc(3)
    scrapes = [
        render_prometheus(registry.snapshot(), const_labels={"worker": str(i)})
        for i in range(2)
    ]
    samples = [
        line
        for text in scrapes
        for line in text.splitlines()
        if line.startswith("repro_serve_requests_total{")
    ]
    assert len(samples) == 2 and len(set(samples)) == 2
    assert 'worker="0"' in samples[0] and 'worker="1"' in samples[1]


def test_live_prometheus_scrape_carries_worker_label(art_dir):
    from repro.obs import lint_exposition

    with PreforkServer(art_dir, workers=1, grace=2.0) as server:
        _post_json(server.port, "/v1/degree", {"ps": [0]})
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/metrics?format=prometheus", timeout=10
        ) as resp:
            text = resp.read().decode()
    assert lint_exposition(text) == []
    assert 'worker="0"' in text
    assert re.search(r'^repro_serve_service_cache_bytes\{worker="0"\} [1-9]', text, re.M)


@pytest.mark.parametrize("exc, counted", [(RuntimeError, True), (ConnectionResetError, False)])
def test_connection_failures_are_counted_not_swallowed(art_dir, tmp_path, exc, counted):
    """A connection that dies on an unexpected error bumps a labeled
    counter and emits an event; a client hang-up stays silent."""
    from repro.obs import events_to, read_events
    from repro.obs.metrics import series_key
    from repro.serve.prefork import _WorkerProcess

    def explode(conn):
        raise exc("boom")

    worker = _WorkerProcess(PreforkServer(art_dir), idx=3, obs_enabled=True)
    worker._serve_wire = explode
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname())
        conn, _addr = listener.accept()
    with instrument() as (_tracer, metrics), events_to(str(tmp_path / "ev.jsonl")):
        with client:
            client.sendall(encode_request("degree", [0]))
            worker._serve_connection(conn, None)
        counters = metrics.snapshot()["counters"]
    key = series_key("serve.connection_errors_total", {"exc": exc.__name__})
    events = [
        e for e in read_events(tmp_path / "ev.jsonl") if e["kind"] == "serve.connection_error"
    ]
    if counted:
        assert counters[key] == 1
        assert [(e["exc"], e["worker"]) for e in events] == [("RuntimeError", 3)]
    else:
        assert not any(k.startswith("serve.connection_errors_total") for k in counters)
        assert events == []


# ----------------------------------------------------------------------
# SIGTERM graceful drain through the CLI (both protocols in flight)
# ----------------------------------------------------------------------


def test_cli_sigterm_drains_inflight_both_protocols(tmp_path, art_dir, oracle_i):
    """SIGTERM with requests in flight on both protocols: every answer
    completes, workers exit 0, the parent reports all workers and writes
    the merged run record."""
    port = _free_port()
    record_path = tmp_path / "record.json"
    env = {**os.environ, "PYTHONPATH": REPO_SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--artifact", str(art_dir), "--port", str(port),
            "--workers-procs", "2", "--protocol", "both",
            "--metrics-out", str(record_path),
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )

    def up() -> bool:
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=1
            ) as resp:
                return resp.status == 200
        except (urllib.error.URLError, ConnectionError, OSError):
            return False

    expected = [oracle_i.degree(i % oracle_i.bk.n) for i in range(40)]
    try:
        assert _wait_for(up), "pre-fork server did not come up"
        # Pipeline 40 wire frames, read only the first, then SIGTERM with
        # the rest still in flight.
        wire_sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        frames = [encode_request("degree", [i % oracle_i.bk.n]) for i in range(40)]
        wire_sock.sendall(b"".join(frames))
        rfile = wire_sock.makefile("rb")
        from repro.serve.wire import read_response

        answers = [int(read_response(rfile)[0])]
        # A keep-alive HTTP connection, already accepted (healthz round
        # trip), with a second request sent but unread when the signal
        # lands -- the drain must answer it before closing.
        http_conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        http_conn.request("GET", "/healthz")
        http_conn.getresponse().read()
        http_conn.request("POST", "/v1/degree", body=json.dumps({"ps": [0]}))
        proc.send_signal(signal.SIGTERM)
        answers += [int(read_response(rfile)[0]) for _ in range(39)]
        http_resp = http_conn.getresponse()
        http_body = json.loads(http_resp.read())
        rc = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    stderr = proc.stderr.read()
    assert rc == 0, stderr
    assert answers == expected
    assert (http_resp.status, http_body["degrees"]) == (200, [oracle_i.degree(0)])
    assert "shut down after" in stderr
    assert "2/2 workers reported" in stderr
    record = json.loads(record_path.read_text())
    counters = record["metrics"]["counters"]
    assert any(k.startswith("serve.wire.responses_total") for k in counters)
