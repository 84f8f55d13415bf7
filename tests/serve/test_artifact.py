"""Artifact round-trip, checksum tamper, and schema-gate tests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.kronecker import GroundTruthOracle
from repro.parallel import manifest
from repro.serve import (
    ARTIFACT_SCHEMA,
    ORACLE_FILE,
    SIDECAR_FILE,
    ArtifactError,
    ArtifactIntegrityError,
    artifact_info,
    load_oracle,
    oracle_arrays,
    save_oracle,
)
from tests.serve.conftest import product_edges


@pytest.mark.parametrize("oracle_fixture", ["oracle_i", "oracle_ii"])
def test_round_trip_bit_identical(oracle_fixture, tmp_path, request):
    """Saved-and-loaded oracles answer every query bit-identically."""
    oracle = request.getfixturevalue(oracle_fixture)
    loaded = load_oracle(save_oracle(oracle, tmp_path / "art"))
    ps = np.arange(oracle.n, dtype=np.int64)
    assert np.array_equal(loaded.degrees(ps), oracle.degrees(ps))
    assert np.array_equal(loaded.squares_at_vertices(ps), oracle.squares_at_vertices(ps))
    ep, eq = product_edges(oracle)
    assert np.array_equal(
        loaded.squares_at_edges(ep, eq), oracle.squares_at_edges(ep, eq)
    )
    assert loaded.global_squares() == oracle.global_squares()
    for p, q in zip(ep[:8].tolist(), eq[:8].tolist()):
        if oracle.degree(p) >= 2 and oracle.degree(q) >= 2:
            assert loaded.clustering_at_edge(p, q) == oracle.clustering_at_edge(p, q)
    assert loaded.assumption is oracle.assumption


@pytest.mark.parametrize("product_fixture", ["product_i", "product_ii"])
def test_mmap_load_bit_identical_to_fresh_oracle(product_fixture, tmp_path, request):
    """A mapped artifact answers every served kind, and the wing bound,
    exactly as an oracle built from the product does; its shape
    attributes match the product and the sidecar."""
    bk = request.getfixturevalue(product_fixture)
    fresh = GroundTruthOracle(bk)
    out = save_oracle(fresh, tmp_path / "art")
    loaded = load_oracle(out, mmap=True)
    info = artifact_info(out)
    assert (loaded.n, loaded.m) == (bk.n, bk.m) == (info["product"]["n"], info["product"]["m"])
    assert (loaded.n_b, loaded.assumption) == (bk.B.graph.n, bk.assumption)
    assert np.array_equal(loaded.part_b, bk.B.part)
    ps, qs = np.indices((bk.n, bk.n)).reshape(2, -1)  # every pair, non-edges too
    vs = np.arange(bk.n, dtype=np.int64)
    assert np.array_equal(loaded.degrees(vs), fresh.degrees(vs))
    assert np.array_equal(loaded.squares_at_vertices(vs), fresh.squares_at_vertices(vs))
    for method in ("squares_at_edges", "wings_at_edges"):
        assert np.array_equal(
            getattr(loaded, method)(ps, qs, on_invalid="mask"),
            getattr(fresh, method)(ps, qs, on_invalid="mask"),
        ), method
    assert np.array_equal(
        loaded.clustering_at_edges(ps, qs), fresh.clustering_at_edges(ps, qs), equal_nan=True
    )
    assert np.array_equal(loaded.has_edges(ps, qs), fresh.has_edges(ps, qs))
    assert loaded.global_squares() == fresh.global_squares()
    assert loaded.max_wing_bound() == fresh.max_wing_bound()


def test_sidecar_without_kernel_backend_and_old_key_tolerated(oracle_i, tmp_path):
    """New sidecars carry no ``kernel_backend``; ones written with it load."""
    out = save_oracle(oracle_i, tmp_path / "art")
    sidecar_path = out / SIDECAR_FILE
    sidecar = json.loads(sidecar_path.read_text())
    assert "kernel_backend" not in sidecar
    sidecar["kernel_backend"] = "numpy"
    sidecar_path.write_text(json.dumps(sidecar))
    assert artifact_info(out)["kernel_backend"] == "numpy"
    loaded = load_oracle(out)
    ps = np.arange(oracle_i.n, dtype=np.int64)
    assert np.array_equal(loaded.squares_at_vertices(ps), oracle_i.squares_at_vertices(ps))


def test_round_trip_no_recompute(oracle_i, tmp_path):
    """Loading holds the persisted chain tables as they are, not fresh
    tables rebuilt from them."""
    out = save_oracle(oracle_i, tmp_path / "art")
    loaded = load_oracle(out, mmap=True)
    for factor in loaded.chain.factors:
        for arr in (factor.indptr, factor.indices, factor.d, factor.w2, factor.cw4, factor.w3):
            assert isinstance(arr, np.memmap) and not arr.flags.writeable
    assert [f.has_loops for f in loaded.chain.factors] == [
        f.has_loops for f in oracle_i.chain.factors
    ]


def test_sidecar_contents(oracle_i, tmp_path):
    out = save_oracle(oracle_i, tmp_path / "art")
    info = artifact_info(out)
    assert info["schema"] == ARTIFACT_SCHEMA
    assert info["checksum"].startswith("sha256:")
    assert info["product"] == {"n": oracle_i.n, "m": oracle_i.m}
    assert info["arrays"] == sorted(oracle_arrays(oracle_i))
    assert (out / ORACLE_FILE).stat().st_size == info["oracle_bytes"]


#: ``repro pack complete:3 biclique:2x3``'s content checksum, as every
#: earlier release wrote it.
PACKED_CHECKSUM = "sha256:7e706aafef6ebdb110c509cedadb11acb018263eb7248b7c3f558994f5366f05"


#: ``OPENSSL_MIN_BYTES`` settings that put the artifact's column bytes
#: below the builtin SHA-256's threshold (as packed) and, at 0, at or
#: above it, where OpenSSL's hashes.
SHA256_SIDES = {"builtin": manifest.OPENSSL_MIN_BYTES, "openssl": 0}


@pytest.mark.parametrize("side", SHA256_SIDES)
def test_pack_keeps_its_checksum_on_both_sides_of_the_threshold(tmp_path, monkeypatch, side):
    from repro.cli import main

    monkeypatch.setattr(manifest, "OPENSSL_MIN_BYTES", SHA256_SIDES[side])
    out = tmp_path / "art"
    assert main(["pack", "complete:3", "biclique:2x3", "-o", str(out)]) == 0
    assert artifact_info(out)["checksum"] == PACKED_CHECKSUM
    load_oracle(out)


def test_checksum_tamper_refused(oracle_i, tmp_path, monkeypatch):
    """A flipped degree value must fail the content checksum on load,
    whichever SHA-256 implementation hashes it."""
    out = save_oracle(oracle_i, tmp_path / "art")
    assert artifact_info(out)["checksum"] == PACKED_CHECKSUM
    with np.load(out / ORACLE_FILE) as data:
        arrays = {key: data[key].copy() for key in data.files}
    arrays["m_d"][0] += 1
    with open(out / ORACLE_FILE, "wb") as fh:
        np.savez(fh, **arrays)
    for openssl_min in SHA256_SIDES.values():
        monkeypatch.setattr(manifest, "OPENSSL_MIN_BYTES", openssl_min)
        with pytest.raises(ArtifactIntegrityError, match="checksum mismatch"):
            load_oracle(out)
    # verify=False deliberately skips the hash (and the stored-vs-derived
    # degree check) -- the caller owns integrity then.
    load_oracle(out, verify=False)


def test_bit_rotted_npz_refused_with_typed_error(oracle_i, tmp_path):
    """A byte-flipped npz (zlib/CRC failure) raises ArtifactError, not a
    bare BadZipFile -- so the CLI reports it instead of tracebacking."""
    from repro.serve import ArtifactError

    from repro.serve.artifact import _npz_member_offsets

    out = save_oracle(oracle_i, tmp_path / "art")
    # Flip a byte inside a member's payload: a flip that lands in a zip
    # header field the reader never uses leaves the content intact.
    offset, size, _ = max(_npz_member_offsets(out / ORACLE_FILE).values(), key=lambda m: m[1])
    blob = bytearray((out / ORACLE_FILE).read_bytes())
    blob[offset + size // 2] ^= 0xFF
    (out / ORACLE_FILE).write_bytes(bytes(blob))
    with pytest.raises(ArtifactError, match="unreadable"):
        load_oracle(out)


def test_kernel_coefficient_tamper_refused(oracle_i, tmp_path):
    """Consistent-checksum but inconsistent coefficients still refuse.

    Rewrites the stored degrees of ``M`` (the β coefficients of Thm. 5)
    *and* the sidecar checksum, simulating a hand-edited artifact whose
    hash was 'fixed up': the degrees no longer follow from the CSR rows.
    """
    from repro.parallel.manifest import checksum_arrays

    out = save_oracle(oracle_i, tmp_path / "art")
    with np.load(out / ORACLE_FILE) as data:
        arrays = {key: data[key].copy() for key in data.files}
    arrays["m_d"][0] += 1
    with open(out / ORACLE_FILE, "wb") as fh:
        np.savez(fh, **arrays)
    info = json.loads((out / SIDECAR_FILE).read_text())
    info["checksum"] = checksum_arrays(arrays)
    (out / SIDECAR_FILE).write_text(json.dumps(info))
    with pytest.raises(ArtifactIntegrityError, match="stored degrees disagree"):
        load_oracle(out)


@pytest.mark.parametrize("member", ["b_indptr", "m_indices", "m_w3", "b_cw4"])
def test_malformed_csr_refused(oracle_i, tmp_path, member):
    """Factor tables that cannot describe an n-vertex CSR factor are
    refused at load, even with verification off: nothing else checks
    their structure."""
    out = save_oracle(oracle_i, tmp_path / "art")
    with np.load(out / ORACLE_FILE) as data:
        arrays = {key: data[key].copy() for key in data.files}
    arrays[member] = arrays[member][:-1]
    with open(out / ORACLE_FILE, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ArtifactError, match="does not fit"):
        load_oracle(out, verify=False)


def test_schema_version_gate(oracle_i, tmp_path):
    out = save_oracle(oracle_i, tmp_path / "art")
    info = json.loads((out / SIDECAR_FILE).read_text())
    info["schema"] = "repro.serve/999"
    (out / SIDECAR_FILE).write_text(json.dumps(info))
    with pytest.raises(ArtifactError, match="unsupported artifact schema"):
        load_oracle(out)


def test_missing_artifact_errors(tmp_path, oracle_i):
    with pytest.raises(ArtifactError, match="no oracle artifact"):
        load_oracle(tmp_path / "nowhere")
    out = save_oracle(oracle_i, tmp_path / "art")
    (out / ORACLE_FILE).unlink()
    with pytest.raises(ArtifactError, match="missing oracle.npz"):
        load_oracle(out)


def test_malformed_sidecar_errors(tmp_path):
    art = tmp_path / "art"
    art.mkdir()
    (art / SIDECAR_FILE).write_text("{not json")
    with pytest.raises(ArtifactError, match="not valid JSON"):
        load_oracle(art)


def test_overwrite_is_atomic_and_idempotent(oracle_i, tmp_path):
    """Packing twice into the same directory leaves one valid artifact
    with an identical content checksum (timestamps never leak in)."""
    out = tmp_path / "art"
    first = artifact_info(save_oracle(oracle_i, out))
    second = artifact_info(save_oracle(oracle_i, out))
    assert first["checksum"] == second["checksum"]
    assert {p.name for p in out.iterdir()} == {SIDECAR_FILE, ORACLE_FILE}
    load_oracle(out)


# ----------------------------------------------------------------------
# Zero-copy mmap loading
# ----------------------------------------------------------------------


def _mmap_backed(arr: np.ndarray) -> bool:
    """Whether the array's storage bottoms out in an OS memory mapping."""
    import mmap as _mmap

    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, _mmap.mmap)


@pytest.mark.parametrize("oracle_fixture", ["oracle_i", "oracle_ii"])
def test_mmap_load_bit_identical(oracle_fixture, tmp_path, request):
    """mmap=True answers every query bit-identically to the eager load."""
    oracle = request.getfixturevalue(oracle_fixture)
    out = save_oracle(oracle, tmp_path / "art")
    mapped = load_oracle(out, mmap=True)
    ps = np.arange(oracle.n, dtype=np.int64)
    assert np.array_equal(mapped.degrees(ps), oracle.degrees(ps))
    assert np.array_equal(mapped.squares_at_vertices(ps), oracle.squares_at_vertices(ps))
    ep, eq = product_edges(oracle)
    assert np.array_equal(mapped.squares_at_edges(ep, eq), oracle.squares_at_edges(ep, eq))
    assert np.array_equal(
        mapped.clustering_at_edges(ep, eq), oracle.clustering_at_edges(ep, eq), equal_nan=True
    )
    assert mapped.global_squares() == oracle.global_squares()


def test_mmap_load_is_zero_copy_and_read_only(oracle_i, tmp_path):
    """The mapped oracle's big arrays are page-cache views of oracle.npz,
    not materialized copies -- and read-only, so nothing can dirty the
    shared pages behind every serving worker's back."""
    out = save_oracle(oracle_i, tmp_path / "art")
    mapped = load_oracle(out, mmap=True)
    for f in mapped.chain.factors:
        for arr in (f.indptr, f.indices, f.d, f.w2, f.cw4, f.w3):
            assert _mmap_backed(arr)
            assert not arr.flags.writeable
    # The eager path stays materialized (and writable) as before.
    eager = load_oracle(out)
    assert not _mmap_backed(eager.chain.factors[0].d)


def test_mmap_checksum_verified_before_serving(oracle_i, tmp_path):
    """Tampered bytes fail the sidecar checksum under mmap=True too --
    mapping is not a verification bypass."""
    out = save_oracle(oracle_i, tmp_path / "art")
    from repro.serve.artifact import _npz_member_offsets

    offset, size, stored = _npz_member_offsets(out / ORACLE_FILE)["m_d"]
    assert stored
    blob = bytearray((out / ORACLE_FILE).read_bytes())
    blob[offset + size - 1] ^= 0x01  # last byte of the m_d payload
    (out / ORACLE_FILE).write_bytes(bytes(blob))
    with pytest.raises(ArtifactIntegrityError, match="checksum mismatch"):
        load_oracle(out, mmap=True)


@pytest.mark.parametrize("mmap", [True, False])
def test_compressed_member_refused_with_repack_hint(oracle_i, tmp_path, mmap):
    """A compressed member cannot be mapped: the artifact is refused,
    whatever the load mode, with the repack remedy."""
    out = save_oracle(oracle_i, tmp_path / "art")
    with np.load(out / ORACLE_FILE) as data:
        arrays = {key: data[key].copy() for key in data.files}
    with open(out / ORACLE_FILE, "wb") as fh:
        np.savez_compressed(fh, **arrays)
    with pytest.raises(ArtifactError, match="compressed member.*repro pack"):
        load_oracle(out, mmap=mmap)


def test_schema_1_artifact_refused_with_repack_hint(oracle_i, tmp_path):
    """A ``repro.serve/1`` artifact (coefficient-engine statistics) is
    refused with the repack remedy, not misread."""
    out = save_oracle(oracle_i, tmp_path / "art")
    info = json.loads((out / SIDECAR_FILE).read_text())
    info["schema"] = "repro.serve/1"
    (out / SIDECAR_FILE).write_text(json.dumps(info))
    with pytest.raises(ArtifactError, match=r"'repro.serve/1'.*repack it with `repro pack`"):
        load_oracle(out)
