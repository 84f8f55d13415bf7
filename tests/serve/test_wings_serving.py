"""The ``wings`` query kind across every serving front.

One contract, three transports: the service's ``answer()``, the HTTP
``/v1/wings`` endpoint, and wire opcode 5 must all be bit-identical to
``GroundTruthOracle.wings_at_edges`` on the same index arrays.
"""

import io
import json
import os
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import PreforkServer, save_oracle
from repro.serve.service import INVALID_SQUARES, OracleService
from repro.serve.wire import (
    KINDS,
    encode_request,
    encode_response,
    read_request,
    read_response,
)
from tests.serve.conftest import product_edges


class TestService:
    def test_answer_matches_oracle(self, oracle_i, edges_i):
        ps, qs = edges_i
        got = OracleService(oracle_i).answer("wings", ps, qs)
        assert np.array_equal(got, oracle_i.wings_at_edges(ps, qs))
        assert got.dtype == np.int64

    def test_non_edges_mask_and_count_invalid(self, oracle_i, edges_i):
        ps, qs = edges_i
        # (p, p) pairs: the product is bipartite, so no vertex is its
        # own neighbour — every probe is invalid.
        svc = OracleService(oracle_i)
        got = svc.answer("wings", ps[:4], ps[:4])
        stats = svc.stats()
        assert (got == INVALID_SQUARES).all()
        assert stats["invalid"] >= 4


class TestWireFrames:
    def test_wings_opcode_is_appended(self):
        # Position is the wire code: appending keeps old clients valid.
        assert KINDS.index("wings") == 5

    def test_request_roundtrip(self, edges_i):
        ps, qs = edges_i
        frame = encode_request("wings", ps, qs)
        kind, rp, rq = read_request(io.BytesIO(frame))
        assert kind == "wings"
        assert np.array_equal(rp, ps) and np.array_equal(rq, qs)

    def test_response_roundtrip_through_service(self, oracle_i, edges_i):
        ps, qs = edges_i
        values = OracleService(oracle_i).answer("wings", ps, qs)
        back = read_response(io.BytesIO(encode_response(values, "wings")))
        assert back.dtype == np.int64
        assert np.array_equal(back, oracle_i.wings_at_edges(ps, qs))

    def test_masked_sentinel_survives_the_wire(self, oracle_i, edges_i):
        ps, _ = edges_i
        values = OracleService(oracle_i).answer("wings", ps[:3], ps[:3])
        back = read_response(io.BytesIO(encode_response(values, "wings")))
        assert (back == INVALID_SQUARES).all()


class _Client:
    def __init__(self, host, port):
        self.base = f"http://{host}:{port}"

    def post(self, path, body):
        req = urllib.request.Request(
            self.base + path,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def served(oracle_i, tmp_path_factory):
    if not hasattr(os, "fork"):
        pytest.skip("pre-fork serving needs os.fork")
    art = save_oracle(oracle_i, tmp_path_factory.mktemp("wings") / "art")
    with PreforkServer(art, workers=1, max_queue=64, cache_bytes=64 * 1024, grace=2.0) as server:
        yield _Client("127.0.0.1", server.port), oracle_i


class TestHttp:
    def test_v1_wings_matches_oracle(self, served, edges_i):
        client, oracle = served
        ps, qs = edges_i
        status, body = client.post(
            "/v1/wings", {"ps": ps.tolist(), "qs": qs.tolist()}
        )
        assert status == 200
        assert body["wings"] == oracle.wings_at_edges(ps, qs).tolist()

    def test_v1_wings_rejects_non_edges(self, served):
        client, _ = served
        status, body = client.post("/v1/wings", {"ps": [0], "qs": [0]})
        assert status == 422
        assert "error" in body

    def test_v1_wings_matches_edge_squares_endpoint(self, served, edges_i):
        # Rem. 1: the wing bound *is* the edge support, so the two
        # endpoints must agree value for value.
        client, _ = served
        ps, qs = edges_i
        payload = {"ps": ps.tolist(), "qs": qs.tolist()}
        _, wings = client.post("/v1/wings", payload)
        _, squares = client.post("/v1/squares/edge", payload)
        assert wings["wings"] == squares["squares"]
