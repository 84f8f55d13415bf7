"""Wire protocol (repro.wire/1) framing, client, and server-loop tests."""

from __future__ import annotations

import io
import struct

import numpy as np
import pytest

from repro.serve import wire
from repro.serve.wire import (
    HEADER_SIZE,
    KINDS,
    MAGIC,
    MAX_FRAME_ELEMENTS,
    STATUS_BAD_REQUEST,
    STATUS_OK,
    STATUS_OVERLOADED,
    WIRE_VERSION,
    WireProtocolError,
    WireServerError,
    encode_error,
    encode_request,
    encode_response,
    read_request,
    read_response,
)

# ----------------------------------------------------------------------
# Frame encode/decode round trips
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["degree", "vertex_squares"])
def test_request_round_trip_vertex_kinds(kind):
    frame = encode_request(kind, [3, 1, 4, 1, 5])
    got_kind, ps, qs = read_request(io.BytesIO(frame))
    assert got_kind == kind
    assert ps.tolist() == [3, 1, 4, 1, 5]
    assert qs is None


@pytest.mark.parametrize("kind", ["edge_squares", "clustering"])
def test_request_round_trip_pair_kinds(kind):
    frame = encode_request(kind, [1, 2], [3, 4])
    got_kind, ps, qs = read_request(io.BytesIO(frame))
    assert got_kind == kind
    assert ps.tolist() == [1, 2] and qs.tolist() == [3, 4]


def test_request_round_trip_global():
    frame = encode_request("global")
    assert len(frame) == HEADER_SIZE
    assert read_request(io.BytesIO(frame)) == ("global", None, None)


def test_response_round_trip_int64_and_float64():
    got = read_response(io.BytesIO(encode_response(np.array([1, -1, 7]), "edge_squares")))
    assert got.dtype == np.dtype("<i8") and got.tolist() == [1, -1, 7]
    values = np.array([0.5, np.nan])
    got = read_response(io.BytesIO(encode_response(values, "clustering")))
    assert got.dtype == np.dtype("<f8")
    assert got[0] == 0.5 and np.isnan(got[1])


def test_response_scalar_global():
    got = read_response(io.BytesIO(encode_response(42, "global")))
    assert got.tolist() == [42]


def test_error_response_raises_typed():
    frame = encode_error(STATUS_OVERLOADED, "queue full")
    with pytest.raises(WireServerError, match="overloaded: queue full") as exc:
        read_response(io.BytesIO(frame))
    assert exc.value.status == STATUS_OVERLOADED


def test_request_validation():
    with pytest.raises(ValueError, match="unknown query kind"):
        encode_request("nope", [1])
    with pytest.raises(ValueError, match="need a ps"):
        encode_request("degree")
    with pytest.raises(ValueError, match="both ps and qs"):
        encode_request("clustering", [1])
    with pytest.raises(ValueError, match="take no index arrays"):
        encode_request("global", [1])
    with pytest.raises(ValueError, match="only ps"):
        encode_request("degree", [1], [2])


# ----------------------------------------------------------------------
# Stream robustness
# ----------------------------------------------------------------------


def test_clean_eof_vs_torn_frame():
    frame = encode_request("degree", [1, 2, 3])
    assert read_request(io.BytesIO(b"")) is None  # clean EOF
    with pytest.raises(WireProtocolError, match="truncated mid-frame"):
        read_request(io.BytesIO(frame[:-4]))
    with pytest.raises(WireProtocolError, match="truncated mid-frame"):
        read_request(io.BytesIO(frame[: HEADER_SIZE - 2]))
    # EOF right before a payload array is mid-frame too: ps, then qs.
    pair = encode_request("edge_squares", [1, 2], [3, 4])
    for torn in (frame[:HEADER_SIZE], pair[: HEADER_SIZE + 16]):
        with pytest.raises(WireProtocolError, match=r"truncated mid-frame \(0/"):
            read_request(io.BytesIO(torn))


def test_bad_magic_and_version_rejected():
    frame = bytearray(encode_request("degree", [1]))
    frame[0] = 0x47  # 'G'
    with pytest.raises(WireProtocolError, match="bad magic"):
        read_request(io.BytesIO(bytes(frame)))
    frame = bytearray(encode_request("degree", [1]))
    frame[2] = WIRE_VERSION + 1
    with pytest.raises(WireProtocolError, match="unsupported wire version"):
        read_request(io.BytesIO(bytes(frame)))


def test_unknown_kind_drains_payload_then_raises():
    """The connection stays framed after an unknown kind: the payload is
    consumed so the next frame parses."""
    bad = bytearray(encode_request("degree", [7]))
    bad[3] = len(KINDS) + 3
    stream = io.BytesIO(bytes(bad) + encode_request("global"))
    with pytest.raises(WireProtocolError, match="unknown kind code"):
        read_request(stream)
    assert read_request(stream) == ("global", None, None)


def test_hostile_header_element_cap():
    header = struct.Struct("<2sBBB3xII").pack(MAGIC, WIRE_VERSION, 0, 0, MAX_FRAME_ELEMENTS + 1, 0)
    with pytest.raises(WireProtocolError, match="frame too large"):
        read_request(io.BytesIO(header))


def test_magic_first_byte_disjoint_from_http():
    """The one-byte protocol sniff relies on 0x9f never starting an HTTP
    request; methods start with printable ASCII."""
    assert MAGIC[0] == 0x9F
    for method in ("GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS", "PATCH"):
        assert method.encode()[0] != MAGIC[0]


# ----------------------------------------------------------------------
# Client against a live pre-fork server
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def wire_server(tmp_path_factory):
    from repro.kronecker import Assumption, GroundTruthOracle, make_bipartite_product
    from repro.generators import complete_bipartite, complete_graph
    from repro.serve import PreforkServer, save_oracle

    product = make_bipartite_product(
        complete_graph(3), complete_bipartite(2, 3), Assumption.NON_BIPARTITE_FACTOR
    )
    oracle = GroundTruthOracle(product)
    art = tmp_path_factory.mktemp("wire-art")
    save_oracle(oracle, art)
    server = PreforkServer(art, workers=1, grace=2.0).start()
    yield server, oracle
    server.stop()


def test_client_round_trips_match_oracle(wire_server):
    server, oracle = wire_server
    n = oracle.n
    ps = np.arange(n, dtype=np.int64)
    with wire.WireClient("127.0.0.1", server.port) as client:
        assert np.array_equal(client.degrees(ps), oracle.degrees(ps))
        assert np.array_equal(client.squares_at_vertices(ps), oracle.squares_at_vertices(ps))
        from tests.serve.conftest import product_edges

        ep, eq = product_edges(oracle)
        assert np.array_equal(client.squares_at_edges(ep, eq), oracle.squares_at_edges(ep, eq))
        assert np.array_equal(
            client.clustering_at_edges(ep, eq), oracle.clustering_at_edges(ep, eq), equal_nan=True
        )
        assert client.global_squares() == oracle.global_squares()


def test_client_mask_semantics_pass_through(wire_server):
    """Non-edges answer -1 / NaN with STATUS_OK, exactly like the oracle's
    mask contract -- a well-formed frame is never an error."""
    server, oracle = wire_server
    p, q = 0, 0  # a self-pair is never a product edge here
    with wire.WireClient("127.0.0.1", server.port) as client:
        assert client.squares_at_edges([p], [q]).tolist() == [-1]
        assert np.isnan(client.clustering_at_edges([p], [q])).all()


def test_client_pipelining_preserves_order(wire_server):
    server, oracle = wire_server
    n = oracle.n
    frames = [encode_request("degree", [i % n]) for i in range(100)]
    with wire.WireClient("127.0.0.1", server.port) as client:
        answers = client.pipeline(frames)
    assert [int(a[0]) for a in answers] == [oracle.degree(i % n) for i in range(100)]


def test_pipeline_burst_larger_than_socket_buffers(wire_server):
    """Answers totalling tens of MiB: sending the whole burst before
    reading would leave client and worker both blocked in a send."""
    server, oracle = wire_server
    ps = np.arange(4096, dtype=np.int64) % oracle.n
    frames = [encode_request("degree", ps)] * 1024  # 32 MiB each way
    with wire.WireClient("127.0.0.1", server.port, timeout=20.0) as client:
        answers = client.pipeline(frames)
        # The connection went back to the pool and still frames cleanly.
        assert client.degrees([0]).tolist() == [oracle.degree(0)]
    expected = oracle.degrees(ps)
    assert len(answers) == len(frames)
    assert all(np.array_equal(a, expected) for a in answers)


def test_pipeline_raises_on_error_frame(wire_server):
    server, oracle = wire_server
    frames = [encode_request("degree", [0]), encode_request("degree", [10**9])]
    with wire.WireClient("127.0.0.1", server.port) as client:
        with pytest.raises(WireServerError) as exc:
            client.pipeline(frames)
        assert exc.value.status == STATUS_BAD_REQUEST
        assert client.pipeline(frames[:1])[0].tolist() == [oracle.degree(0)]


def test_cached_wire_answers_match_the_oracle(wire_server):
    """A repeated frame is a cache hit in the worker; its bytes must not
    differ from the first (computed) answer or from the direct oracle."""
    server, oracle = wire_server
    from tests.serve.conftest import product_edges

    ep, eq = product_edges(oracle)
    with wire.WireClient("127.0.0.1", server.port) as client:
        for _ in range(3):
            assert np.array_equal(client.wings_at_edges(ep, eq), oracle.wings_at_edges(ep, eq))
            assert np.array_equal(
                client.clustering_at_edges(ep, eq),
                oracle.clustering_at_edges(ep, eq),
                equal_nan=True,
            )


def test_error_frame_keeps_connection_usable(wire_server):
    server, oracle = wire_server
    with wire.WireClient("127.0.0.1", server.port) as client:
        with pytest.raises(WireServerError) as exc:
            client.degrees([10**9])
        assert exc.value.status == STATUS_BAD_REQUEST
        # Same client, next request answers fine (pool reuses the socket).
        assert client.degrees([0]).tolist() == [oracle.degree(0)]


def test_status_names_cover_codes():
    assert STATUS_OK == 0
    frame = encode_error(STATUS_BAD_REQUEST, "x")
    with pytest.raises(WireServerError, match="bad-request"):
        read_response(io.BytesIO(frame))
