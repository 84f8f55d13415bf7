"""HTTP API: endpoint round-trips and the 400/422/500/503 failure paths,
served by the pre-fork front end."""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.kronecker import GroundTruthOracle
from repro.obs import instrument, lint_exposition
from repro.obs.metrics import series_key
from repro.serve import OracleService, PreforkServer, WireClient, save_oracle
from repro.serve import http as http_module
from repro.serve import prefork as prefork_module
from repro.serve.http import PROM_CONTENT_TYPE
from repro.serve.wire import STATUS_INTERNAL, STATUS_OVERLOADED, WireServerError

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="pre-fork serving needs os.fork"
)


class _Client:
    """Tiny urllib client returning (status, parsed_json)."""

    def __init__(self, host: str, port: int):
        self.base = f"http://{host}:{port}"

    def get(self, path: str):
        return self._call(urllib.request.Request(self.base + path))

    def post(self, path: str, body, raw: bytes | None = None):
        data = raw if raw is not None else json.dumps(body).encode("utf-8")
        return self._call(
            urllib.request.Request(
                self.base + path, data=data, headers={"Content-Type": "application/json"}
            )
        )

    def _call(self, req):
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def get_raw(self, path: str):
        """(status, text body, content-type) without JSON parsing."""
        try:
            with urllib.request.urlopen(self.base + path, timeout=10) as resp:
                return resp.status, resp.read().decode("utf-8"), resp.headers.get("Content-Type")
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode("utf-8"), exc.headers.get("Content-Type")

    def service(self) -> dict:
        """The worker's service tallies, as ``/metrics`` reports them."""
        return self.get("/metrics")[1]["service"]


@pytest.fixture(scope="module")
def art(oracle_i, tmp_path_factory):
    return save_oracle(oracle_i, tmp_path_factory.mktemp("http") / "art")


def _start(art, *, instrumented=True, **kwargs):
    """A one-worker server; ``instrumented`` gives the worker a live registry."""
    with instrument() if instrumented else contextlib.nullcontext():
        return PreforkServer(art, workers=1, grace=2.0, **kwargs).start()


@pytest.fixture(scope="module")
def served(art, oracle_i):
    server = _start(art, max_queue=64, cache_bytes=64 * 1024)
    try:
        yield _Client("127.0.0.1", server.port), oracle_i
    finally:
        server.stop()


def test_healthz(served):
    client, _ = served
    status, body = client.get("/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert body["artifact"]["schema"] == "repro.serve/2"
    assert body["worker"] == "0"
    assert body["queue_depth"] == 0


def test_degree_endpoint_matches_oracle(served):
    client, oracle = served
    ps = list(range(oracle.n))
    status, body = client.post("/v1/degree", {"ps": ps})
    assert status == 200
    assert body["degrees"] == oracle.degrees(ps).tolist()
    # scalar sugar
    status, body = client.post("/v1/degree", {"p": 3})
    assert (status, body["degrees"]) == (200, [oracle.degree(3)])


def test_vertex_squares_endpoint_matches_oracle(served):
    client, oracle = served
    ps = list(range(oracle.n))
    status, body = client.post("/v1/squares/vertex", {"ps": ps})
    assert status == 200
    assert body["squares"] == oracle.squares_at_vertices(ps).tolist()


def test_edge_endpoints_match_oracle(served, edges_i):
    client, oracle = served
    ep, eq = (a.tolist() for a in edges_i)
    status, body = client.post("/v1/squares/edge", {"ps": ep, "qs": eq})
    assert status == 200
    assert body["squares"] == oracle.squares_at_edges(edges_i[0], edges_i[1]).tolist()
    status, body = client.post("/v1/clustering", {"ps": ep[:4], "qs": eq[:4]})
    assert status == 200
    expected = [oracle.clustering_at_edge(p, q) for p, q in zip(ep[:4], eq[:4])]
    assert body["clustering"] == expected


def test_global_endpoint(served):
    client, oracle = served
    status, body = client.get("/v1/global")
    assert (status, body["squares"]) == (200, oracle.global_squares())


def test_metrics_endpoint(served):
    client, _ = served
    client.post("/v1/degree", {"ps": [0]})
    status, body = client.get("/metrics")
    assert status == 200
    assert body["service"]["requests"] >= 1
    assert "metrics" in body


def test_metrics_prometheus_exposition(served):
    """Live registry + traffic -> a lintable scrape with labeled series."""
    client, _ = served
    client.post("/v1/degree", {"ps": [0]})
    client.post("/v1/degree", {"qs": [0]})  # a 400, for the status label
    status, text, content_type = client.get_raw("/metrics?format=prometheus")
    assert status == 200
    assert content_type == PROM_CONTENT_TYPE
    assert lint_exposition(text) == []
    lines = text.splitlines()

    def sample(fragment):
        return [line for line in lines if fragment in line and not line.startswith("#")]

    ok = sample('repro_serve_http_responses_total{endpoint="v1_degree",status="200",worker="0"}')
    bad = sample('repro_serve_http_responses_total{endpoint="v1_degree",status="400",worker="0"}')
    assert ok and int(ok[0].rsplit(" ", 1)[1]) >= 1
    assert bad and int(bad[0].rsplit(" ", 1)[1]) >= 1
    for q in ("0.5", "0.99"):
        assert sample(
            f'repro_serve_http_latency_seconds_quantile{{endpoint="v1_degree",quantile="{q}",worker="0"}}'
        )
    # Service tallies ride along as gauges in the same scrape.
    assert sample("repro_serve_service_requests")


def test_metrics_prometheus_works_on_null_registry(art):
    """No instrumentation installed: exposition is valid, service gauges only."""
    server = _start(art, instrumented=False)
    try:
        client = _Client("127.0.0.1", server.port)
        client.post("/v1/degree", {"ps": [0]})
        status, text, _ = client.get_raw("/metrics?format=prometheus")
    finally:
        server.stop()
    assert status == 200
    assert lint_exposition(text) == []
    assert "repro_serve_service_requests" in text
    assert "repro_serve_http_responses_total" not in text


def test_metrics_unknown_format_is_400(served):
    client, _ = served
    status, body = client.get("/metrics?format=xml")
    assert status == 400
    assert "unknown format" in body["error"]


def test_malformed_json_is_400(served):
    client, _ = served
    status, body = client.post("/v1/degree", None, raw=b"{not json")
    assert status == 400
    assert "not valid JSON" in body["error"]


@pytest.mark.parametrize(
    "path,body,fragment",
    [
        ("/v1/degree", {"qs": [0]}, "unexpected keys"),
        ("/v1/degree", {}, "missing required key"),
        ("/v1/degree", {"ps": 3}, "must be a JSON list"),
        ("/v1/degree", {"ps": [0.5]}, "integers only"),
        ("/v1/degree", {"ps": ["a"]}, "integers only"),
        ("/v1/degree", {"ps": [True]}, "integers only"),
        ("/v1/degree", {"ps": [0], "p": 0}, "not both"),
        ("/v1/squares/edge", {"ps": [0]}, "missing required key"),
        ("/v1/squares/edge", {"ps": [0, 1], "qs": [0]}, "match in length"),
        ("/v1/clustering", {"ps": [0, 1], "qs": [2]}, "match in length"),
        ("/v1/degree", [0, 1], "JSON object"),
    ],
)
def test_wrong_arity_and_shape_are_400(served, path, body, fragment):
    client, _ = served
    status, payload = client.post(path, body)
    assert status == 400, payload
    assert fragment in payload["error"]


def test_out_of_range_vertex_is_400(served):
    client, oracle = served
    status, payload = client.post("/v1/degree", {"ps": [oracle.n]})
    assert status == 400
    assert "out of range" in payload["error"]


def test_non_edge_is_422_with_slots(served):
    client, _ = served
    status, payload = client.post("/v1/squares/edge", {"ps": [0, 0], "qs": [0, 0]})
    assert status == 422
    assert payload["invalid"] == [0, 1]
    assert payload["pairs"] == [[0, 0], [0, 0]]
    status, payload = client.post("/v1/clustering", {"ps": [0], "qs": [0]})
    assert status == 422


def test_mixed_batch_names_only_invalid_slots(served, edges_i):
    """One bad pair in a batch: 422 names its slot, not the whole batch."""
    client, _ = served
    ep, eq = edges_i
    status, payload = client.post(
        "/v1/squares/edge", {"ps": [int(ep[0]), 0], "qs": [int(eq[0]), 0]}
    )
    assert status == 422
    assert payload["invalid"] == [1]


def test_unknown_endpoint_404_wrong_method_405(served):
    client, _ = served
    assert client.get("/v1/nonsense")[0] == 404
    assert client.get("/v1/degree")[0] == 405
    assert client.post("/v1/global", {})[0] == 405
    assert client.post("/healthz", {})[0] == 405


def test_saturated_service_sheds_503(art):
    """max_queue=0: every query sheds, 503 over HTTP and OVERLOADED over
    wire on the same port, each counted once."""
    server = _start(art, max_queue=0, cache_bytes=0)
    try:
        client = _Client("127.0.0.1", server.port)
        before = client.service()["shed"]
        status, payload = client.post("/v1/degree", {"ps": [0]})
        assert status == 503
        assert payload == {"error": "queue depth 0 at max_queue=0; back off and retry"}
        status, _ = client.get("/v1/global")
        assert status == 503
        with WireClient("127.0.0.1", server.port) as wire:
            with pytest.raises(WireServerError, match="back off and retry") as exc:
                wire.degrees([0])
        assert exc.value.status == STATUS_OVERLOADED
        assert client.service()["shed"] == before + 3
        # Liveness endpoints keep answering while queries shed.
        assert client.get("/healthz")[0] == 200
        assert client.get("/metrics")[0] == 200
    finally:
        server.stop()


def test_keep_alive_survives_errors(served):
    """Errors mid-connection never desync subsequent requests."""
    client, oracle = served
    for _ in range(3):
        assert client.post("/v1/degree", None, raw=b"xx")[0] == 400
        status, body = client.post("/v1/degree", {"ps": [0]})
        assert (status, body["degrees"]) == (200, [oracle.degree(0)])


def test_answers_bit_identical_under_concurrency(served, edges_i):
    client, oracle = served
    ep, eq = edges_i
    expected = oracle.squares_at_edges(ep, eq).tolist()
    errors: list[str] = []

    def worker(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(10):
            idx = rng.integers(0, ep.size, size=3).tolist()
            status, body = client.post(
                "/v1/squares/edge",
                {"ps": [int(ep[i]) for i in idx], "qs": [int(eq[i]) for i in idx]},
            )
            if status != 200 or body["squares"] != [expected[i] for i in idx]:
                errors.append(f"{status}: {body}")

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[:3]


def test_json_queries_take_the_synchronous_path(art, monkeypatch):
    """A worker answers JSON with ``answer()`` on the connection thread:
    no kernel batches, and the batcher threads (``oracle-serve-*``, only
    ever spawned by ``OracleService.start``) never start."""

    def refuse(self):
        raise AssertionError("a pre-fork worker started the batcher threads")

    monkeypatch.setattr(OracleService, "start", refuse)
    server = _start(art, cache_bytes=0)
    try:
        client = _Client("127.0.0.1", server.port)
        for p in range(20):
            assert client.post("/v1/degree", {"ps": [p % 6]})[0] == 200
        stats = client.service()
    finally:
        server.stop()
    assert stats["batches"] == 0
    assert stats["requests"] == stats["misses"] == 20


def test_http_latency_covers_the_send(art, monkeypatch):
    """The latency histogram closes after the response is written."""
    send = http_module._OracleHandler._send

    def slow_send(self, status, payload):
        time.sleep(0.05)
        send(self, status, payload)

    monkeypatch.setattr(http_module._OracleHandler, "_send", slow_send)
    server = _start(art)
    # One keep-alive connection: its handler observes the POST's latency
    # before it reads the scrape, so the scrape always sees it.
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request("POST", "/v1/degree", body=json.dumps({"ps": [0]}))
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 200
        conn.request("GET", "/metrics")
        histograms = json.loads(conn.getresponse().read())["metrics"]["histograms"]
    finally:
        conn.close()
        server.stop()
    latency = histograms[series_key("serve.http.latency_seconds", {"endpoint": "v1_degree"})]
    assert latency["count"] == 1
    assert latency["p50"] >= 0.05


def test_wire_latency_covers_the_send(art, monkeypatch):
    """The wire histogram closes after the flush that carries the answer,
    not when the answer joins the coalesced buffer."""
    flush = prefork_module._WorkerProcess._flush

    def slow_flush(conn, out, sent_t0, latency):
        time.sleep(0.05)
        flush(conn, out, sent_t0, latency)

    monkeypatch.setattr(prefork_module._WorkerProcess, "_flush", staticmethod(slow_flush))
    server = _start(art)
    try:
        with WireClient("127.0.0.1", server.port) as wire:
            assert wire.degrees([0]).size == 1
        client = _Client("127.0.0.1", server.port)
        key = series_key("serve.wire.latency_seconds", {})
        deadline = time.monotonic() + 5.0
        while True:  # the worker observes just after its send returns
            latency = client.get("/metrics")[1]["metrics"]["histograms"].get(key)
            if (latency and latency["count"]) or time.monotonic() > deadline:
                break
            time.sleep(0.01)
    finally:
        server.stop()
    assert latency["count"] == 1
    assert latency["p50"] >= 0.05


def test_internal_errors_are_counted_per_front(art, tmp_path, monkeypatch):
    """A failing kernel answers 500 over HTTP and STATUS_INTERNAL over
    wire; each bumps the labeled counter once and emits an event."""
    from repro.obs import events_to, read_events

    def broken(self, ps):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr(GroundTruthOracle, "degrees", broken)
    events_path = tmp_path / "ev.jsonl"
    with events_to(str(events_path)):
        server = _start(art, cache_bytes=0)
        try:
            client = _Client("127.0.0.1", server.port)
            status, payload = client.post("/v1/degree", {"ps": [0]})
            assert (status, payload) == (500, {"error": "internal error: kernel exploded"})
            with WireClient("127.0.0.1", server.port) as wire:
                with pytest.raises(WireServerError, match="kernel exploded") as exc:
                    wire.degrees([0])
            assert exc.value.status == STATUS_INTERNAL
            counters = client.get("/metrics")[1]["metrics"]["counters"]
        finally:
            server.stop()
    for front in ("http", "wire"):
        key = series_key("serve.internal_errors_total", {"front": front, "exc": "RuntimeError"})
        assert counters[key] == 1
    events = [e for e in read_events(events_path) if e["kind"] == "serve.internal_error"]
    assert sorted((e["front"], e["exc"], e["worker"]) for e in events) == [
        ("http", "RuntimeError", "0"),
        ("wire", "RuntimeError", "0"),
    ]
