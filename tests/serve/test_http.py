"""HTTP API: endpoint round-trips and the 400/422/500/503 failure paths,
served by the pre-fork front end."""

from __future__ import annotations

import contextlib
import email.utils
import http.client
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.kronecker import GroundTruthOracle
from repro.obs import instrument, lint_exposition
from repro.obs.metrics import parse_series_key, series_key
from repro.serve import PreforkServer, WireClient, save_oracle
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
        self.port = port
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
    assert body["artifact"]["schema"] == "repro.serve/3"
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


def test_unrouted_paths_share_one_endpoint_label(art):
    """A path scan adds one ``endpoint`` series, not one per path."""
    server = _start(art)
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)

    def endpoints() -> dict[str, set[str]]:
        conn.request("GET", "/metrics")
        snapshot = json.loads(conn.getresponse().read())["metrics"]
        found: dict[str, set[str]] = {}
        for kind in ("counters", "histograms"):
            for key in snapshot[kind]:
                name, labels = parse_series_key(key)
                if name.startswith("serve.http.") and "endpoint" in labels:
                    found.setdefault(name, set()).add(labels["endpoint"])
        return found

    try:
        endpoints()  # so the scrape's own series exist before the baseline
        before = endpoints()
        for i in range(200):
            conn.request("GET", f"/scan/{i}")
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 404
        after = endpoints()
        conn.request("GET", "/metrics")
        counters = json.loads(conn.getresponse().read())["metrics"]["counters"]
    finally:
        conn.close()
        server.stop()
    for name in ("serve.http.responses_total", "serve.http.latency_seconds"):
        assert after[name] - before[name] == {"unknown"}, name
    key = series_key("serve.http.responses_total", {"endpoint": "unknown", "status": "404"})
    assert counters[key] == 200


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


def test_json_queries_take_the_synchronous_path(art):
    """A worker answers JSON with ``answer()`` on the connection thread:
    one engine call per uncached request."""
    server = _start(art, cache_bytes=0)
    try:
        client = _Client("127.0.0.1", server.port)
        for p in range(20):
            assert client.post("/v1/degree", {"ps": [p % 6]})[0] == 200
        stats = client.service()
    finally:
        server.stop()
    assert stats["requests"] == stats["batches"] == stats["misses"] == 20


def test_http_latency_covers_the_send(art, monkeypatch):
    """The latency histogram closes after the response is written."""
    send = http_module._send

    def slow_send(conn, status, payload, close):
        time.sleep(0.05)
        send(conn, status, payload, close)

    monkeypatch.setattr(http_module, "_send", slow_send)
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


# ----------------------------------------------------------------------
# Framing: the worker's own HTTP/1.1 loop, driven byte by byte
# ----------------------------------------------------------------------


def _request(
    method: str, path: str, body: bytes = b"", version: str = "HTTP/1.1", headers: str = ""
) -> bytes:
    head = f"{method} {path} {version}\r\nHost: test\r\n{headers}"
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    return (head + "\r\n").encode("latin-1") + body


def _degree_request(p: int, **kwargs) -> bytes:
    return _request("POST", "/v1/degree", json.dumps({"ps": [p]}).encode(), **kwargs)


@contextlib.contextmanager
def _raw_connection(client: _Client):
    """A bare socket and its reader: nothing between the test and the bytes."""
    sock = socket.create_connection(("127.0.0.1", client.port), timeout=10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        with sock.makefile("rb") as rfile:
            yield sock, rfile
    finally:
        sock.close()


def _response(rfile) -> tuple[int, dict[str, str], bytes]:
    """One response: (status, lowercased headers, body)."""
    status_line = rfile.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers: dict[str, str] = {}
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = rfile.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


def _closed(rfile) -> bool:
    """True when the server has closed the connection (EOF or reset)."""
    try:
        return rfile.read() == b""
    except ConnectionResetError:
        return True


def test_response_head_is_status_date_type_and_length(served):
    client, oracle = served
    with _raw_connection(client) as (sock, rfile):
        sock.sendall(_degree_request(0))
        status, headers, body = _response(rfile)
    assert status == 200
    assert set(headers) == {"date", "content-type", "content-length"}
    assert headers["content-type"] == "application/json"
    assert json.loads(body) == {"degrees": [oracle.degree(0)]}
    # An IMF-fixdate, the form email.utils writes, within a minute of now.
    sent = email.utils.parsedate_to_datetime(headers["date"]).timestamp()
    assert headers["date"] == email.utils.formatdate(sent, usegmt=True)
    assert abs(sent - time.time()) < 60


def test_pipelined_requests_are_answered_in_order(served):
    client, oracle = served
    with _raw_connection(client) as (sock, rfile):
        sock.sendall(
            _degree_request(0) + _request("GET", "/v1/global") + _degree_request(1)
        )
        answers = [_response(rfile) for _ in range(3)]
    assert [status for status, _, _ in answers] == [200, 200, 200]
    assert [json.loads(body) for _, _, body in answers] == [
        {"degrees": [oracle.degree(0)]},
        {"squares": oracle.global_squares()},
        {"degrees": [oracle.degree(1)]},
    ]


def test_request_sent_one_byte_at_a_time_is_answered(served):
    client, oracle = served
    with _raw_connection(client) as (sock, rfile):
        for i in range(2):  # the second request proves the stream stays framed
            for byte in _degree_request(i):
                sock.send(bytes([byte]))
                time.sleep(0.001)
            status, _, body = _response(rfile)
            assert (status, json.loads(body)) == (200, {"degrees": [oracle.degree(i)]})


def test_expect_100_continue_gets_continue_before_the_body(served):
    client, oracle = served
    body = json.dumps({"ps": [2]}).encode()
    with _raw_connection(client) as (sock, rfile):
        sock.sendall(
            b"POST /v1/degree HTTP/1.1\r\nHost: test\r\nExpect: 100-continue\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
        )
        assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert rfile.readline() == b"\r\n"
        sock.sendall(body)
        status, _, answer = _response(rfile)
    assert (status, json.loads(answer)) == (200, {"degrees": [oracle.degree(2)]})


@pytest.mark.parametrize(
    "version, headers, closes",
    [
        ("HTTP/1.0", "", True),
        ("HTTP/1.1", "Connection: close\r\n", True),
        ("HTTP/1.0", "Connection: keep-alive\r\n", False),
        ("HTTP/1.1", "", False),
    ],
)
def test_connection_closes_only_when_the_request_asks(served, version, headers, closes):
    client, oracle = served
    with _raw_connection(client) as (sock, rfile):
        sock.sendall(_degree_request(0, version=version, headers=headers))
        status, response_headers, body = _response(rfile)
        assert (status, json.loads(body)) == (200, {"degrees": [oracle.degree(0)]})
        if closes:
            assert response_headers["connection"] == "close"
            assert _closed(rfile)
        else:
            assert "connection" not in response_headers
            sock.sendall(_degree_request(1, version=version, headers=headers))
            assert _response(rfile)[0] == 200


@pytest.mark.parametrize(
    "request_line",
    [b"GARBAGE", b"GET /healthz", b"GET  /healthz HTTP/1.1", b"GET /healthz HTTP/2.0"],
)
def test_malformed_request_line_is_400_and_closes(served, request_line):
    client, _ = served
    with _raw_connection(client) as (sock, rfile):
        sock.sendall(request_line + b"\r\nHost: test\r\n\r\n" + _degree_request(0))
        status, headers, body = _response(rfile)
        assert status == 400
        assert headers["connection"] == "close"
        assert "malformed request line" in json.loads(body)["error"]
        assert _closed(rfile)


def test_malformed_header_line_is_400_and_closes(served):
    client, _ = served
    with _raw_connection(client) as (sock, rfile):
        sock.sendall(b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n")
        status, headers, body = _response(rfile)
        assert (status, headers["connection"]) == (400, "close")
        assert "malformed header line" in json.loads(body)["error"]
        assert _closed(rfile)


def test_head_over_64_kib_is_431_and_closes(served):
    client, _ = served
    with _raw_connection(client) as (sock, rfile):
        sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (1 << 16) + b"\r\n\r\n")
        status, headers, _ = _response(rfile)
        assert (status, headers["connection"]) == (431, "close")
        assert _closed(rfile)
    # A head just under the cap is still served.
    with _raw_connection(client) as (sock, rfile):
        pad = b"a" * ((1 << 16) - 100)
        sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Pad: " + pad + b"\r\n\r\n")
        assert _response(rfile)[0] == 200


@pytest.mark.parametrize("length", [b"abc", b"-1", b"+3", b"1.5", b""])
def test_bad_content_length_is_400_and_closes(served, length):
    client, _ = served
    with _raw_connection(client) as (sock, rfile):
        sock.sendall(
            b"POST /v1/degree HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n{}"
        )
        status, headers, body = _response(rfile)
        assert (status, headers["connection"]) == (400, "close")
        assert json.loads(body) == {"error": "bad Content-Length header"}
        assert _closed(rfile)


def test_chunked_body_is_501_and_closes(served):
    """A chunked body is never parsed, so its connection cannot stay framed."""
    client, _ = served
    with _raw_connection(client) as (sock, rfile):
        sock.sendall(
            b"POST /v1/degree HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"b\r\n{\"ps\": [0]}\r\n0\r\n\r\n"
        )
        status, headers, body = _response(rfile)
        assert (status, headers["connection"]) == (501, "close")
        assert "Transfer-Encoding" in json.loads(body)["error"]
        assert _closed(rfile)


def test_unsupported_method_is_501_and_keeps_the_connection(served):
    client, oracle = served
    with _raw_connection(client) as (sock, rfile):
        sock.sendall(_request("PUT", "/v1/degree", b'{"ps": [0]}') + _degree_request(0))
        status, headers, body = _response(rfile)
        assert status == 501
        assert "connection" not in headers
        assert json.loads(body) == {"error": "unsupported method 'PUT'"}
        status, _, body = _response(rfile)
        assert (status, json.loads(body)) == (200, {"degrees": [oracle.degree(0)]})


def test_stop_releases_an_idle_keep_alive_client(art, oracle_i):
    """``stop()`` does not wait out an idle keep-alive connection, and a
    request already sent when the drain starts still gets its answer."""
    server = _start(art)
    idle = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    busy = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        for conn in (idle, busy):  # both accepted: one round trip each
            conn.request("GET", "/healthz")
            conn.getresponse().read()
        busy.request("POST", "/v1/degree", body=json.dumps({"ps": [0]}))
        t0 = time.monotonic()
        server.stop()
        elapsed = time.monotonic() - t0
        resp = busy.getresponse()
        assert (resp.status, json.loads(resp.read())) == (200, {"degrees": [oracle_i.degree(0)]})
    finally:
        idle.close()
        busy.close()
    assert elapsed < 1.0
