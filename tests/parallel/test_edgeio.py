"""The repro.edges/1 binary shard container: roundtrips, typed failure
modes, and manifest-checksum compatibility.

Shard readers trust *magic bytes*, never file extensions: an ``.npz``
shard from an older run, under any name, is refused with a typed
:class:`EdgeFormatError` that says to regenerate it, and any other
foreign file raises the same type.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.parallel.edgeio import (
    CODECS,
    EDGES_SCHEMA,
    EdgeFormatError,
    EdgeIntegrityError,
    file_content_checksum,
    read_edges_file,
    read_shard_arrays,
    write_edges_file,
)
from repro.parallel.manifest import checksum_arrays

SETTINGS = settings(max_examples=15, deadline=None)


def sample_arrays(n: int = 1000) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    return {
        "p": rng.integers(0, 1 << 40, n),
        "q": rng.integers(0, 1 << 40, n),
        "squares": rng.integers(0, 1 << 20, n),
    }


@pytest.mark.parametrize("codec", ["raw", "deflate"])
@pytest.mark.parametrize("block_entries", [1, 7, 16384, 10**6])
def test_roundtrip_bit_identical(tmp_path, codec, block_entries):
    """Property (b): bit-identical roundtrip at block sizes {1, 7,
    16384, > |E|} under every locally available codec."""
    arrays = sample_arrays()
    path = tmp_path / "x.edges"
    checksum = write_edges_file(path, arrays, block_entries=block_entries, codec=codec)
    assert checksum == checksum_arrays(arrays)
    back = read_edges_file(path)
    assert sorted(back) == sorted(arrays)
    for name in arrays:
        assert back[name].dtype == np.int64
        np.testing.assert_array_equal(back[name], arrays[name].astype(np.int64))


@given(
    n=st.integers(0, 300),
    block_entries=st.integers(1, 400),
    codec=st.sampled_from(["raw", "deflate"]),
)
@SETTINGS
def test_roundtrip_property(tmp_path_factory, n, block_entries, codec):
    rng = np.random.default_rng(n * 7919 + block_entries)
    arrays = {
        "p": rng.integers(-(1 << 62), 1 << 62, n),
        "q": rng.integers(-(1 << 62), 1 << 62, n),
    }
    path = tmp_path_factory.mktemp("edges") / "x.edges"
    checksum = write_edges_file(path, arrays, block_entries=block_entries, codec=codec)
    back = read_edges_file(path)
    for name in arrays:
        np.testing.assert_array_equal(back[name], arrays[name])
    assert checksum == checksum_arrays(back)


def test_empty_arrays_roundtrip(tmp_path):
    arrays = {"p": np.zeros(0, dtype=np.int64), "q": np.zeros(0, dtype=np.int64)}
    path = tmp_path / "empty.edges"
    write_edges_file(path, arrays)
    back = read_edges_file(path)
    assert back["p"].size == 0 and back["q"].size == 0


def test_renamed_npz_is_refused_by_magic(tmp_path):
    """An old ``.npz`` shard is refused by its ``PK`` magic even under an
    ``.edges`` name, with an error that names the fix."""
    disguised = tmp_path / "shard_0000.edges"
    with open(disguised, "wb") as fh:  # np.savez would append ".npz" to a name
        np.savez(fh, p=np.arange(50), q=np.arange(50))
    with pytest.raises(EdgeFormatError, match="regenerate with `repro shards`"):
        read_shard_arrays(disguised)


def test_unknown_magic_is_typed_error(tmp_path):
    junk = tmp_path / "junk.edges"
    junk.write_bytes(b"torn shard: fault injected mid-write")
    with pytest.raises(EdgeFormatError, match="junk.edges"):
        read_shard_arrays(junk)


def test_truncated_file_is_typed_error(tmp_path):
    path = tmp_path / "torn.edges"
    write_edges_file(path, sample_arrays(500))
    data = path.read_bytes()
    for cut in (4, 15, 20, len(data) // 2, len(data) - 3):
        path.write_bytes(data[:cut])
        with pytest.raises(EdgeFormatError):
            read_edges_file(path)


def test_flipped_payload_byte_is_integrity_error(tmp_path):
    path = tmp_path / "bad.edges"
    write_edges_file(path, sample_arrays(500))
    data = bytearray(path.read_bytes())
    # Flip a byte well inside the first block's payload (header is 16
    # bytes + the names blob; payload starts shortly after).
    data[200] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(EdgeIntegrityError):
        read_edges_file(path, verify=True)


def test_verify_false_skips_checksum(tmp_path):
    path = tmp_path / "bad.edges"
    arrays = {"p": np.arange(500, dtype=np.int64)}
    write_edges_file(path, arrays, block_entries=500)
    data = bytearray(path.read_bytes())
    data[100] ^= 0xFF
    path.write_bytes(bytes(data))
    back = read_edges_file(path, verify=False)  # structurally valid, wrong data
    assert back["p"].size == 500
    assert not np.array_equal(back["p"], arrays["p"])


def test_bad_codec_and_bad_columns(tmp_path, capsys):
    for codec in ("nope", "zstd"):
        with pytest.raises(EdgeFormatError, match="unknown codec"):
            write_edges_file(tmp_path / "x.edges", {"p": np.arange(3)}, codec=codec)
    assert not (tmp_path / "x.edges").exists()
    # A header naming codec id 2 (once zstd) is refused before any block is read.
    path = tmp_path / "id2.edges"
    write_edges_file(path, {"p": np.arange(3)})
    data = bytearray(path.read_bytes())
    data[3] = 2  # header: magic(2) version(1) codec(1) ...
    path.write_bytes(bytes(data))
    for read in (read_edges_file, file_content_checksum):
        with pytest.raises(EdgeFormatError, match="unknown codec id 2"):
            read(path)
    with pytest.raises(SystemExit) as exc:
        main(["shards", "complete:3", "path:4", "-o", str(tmp_path / "sh"), "--codec", "zstd"])
    assert exc.value.code == 2
    assert "invalid choice: 'zstd'" in capsys.readouterr().err
    with pytest.raises(EdgeFormatError):
        write_edges_file(tmp_path / "y.edges", {"a,b": np.arange(3)})
    with pytest.raises(EdgeFormatError):
        write_edges_file(
            tmp_path / "z.edges", {"p": np.zeros((2, 2), dtype=np.int64)}
        )


def test_checksum_container_independent(tmp_path):
    """The same arrays carry the same content checksum under every
    codec -- what keeps manifests codec-agnostic."""
    arrays = sample_arrays(64)
    validated = {k: np.ascontiguousarray(v, dtype=np.int64) for k, v in arrays.items()}
    for codec in ("raw", "deflate"):
        checksum = write_edges_file(tmp_path / f"{codec}.edges", arrays, codec=codec)
        assert checksum == checksum_arrays(validated)


def test_schema_constants():
    assert EDGES_SCHEMA == "repro.edges/1"
    assert CODECS == {"raw": 0, "deflate": 1}
