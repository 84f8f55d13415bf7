"""Tests for the checksummed shard manifest layer.

The manifest is the integrity record of a sharded run: round-tripping
must be lossless, writes atomic, checksums content-deterministic, and
every corruption mode (tampered bytes, missing file, wrong signature)
must be *detected*, never silently trusted.
"""

import hashlib
import importlib
import json
import platform
import sys

import numpy as np
import pytest

from repro.generators import complete_bipartite, cycle_graph, path_graph
from repro.kronecker import Assumption, make_bipartite_product
from repro.kronecker.multifactor import KroneckerChain
from repro.obs import instrument
from repro.parallel import (
    MANIFEST_NAME,
    EdgeFormatError,
    ManifestError,
    ShardIntegrityError,
    ShardManifest,
    chain_signature,
    checksum_arrays,
    generate_chain_shards,
    load_manifest,
    load_shards,
    manifest,
    shard_file_checksum,
    validate_manifest,
    verify_shards,
    write_edges_file,
    write_manifest,
)
from repro.parallel.manifest import OPENSSL_MIN_BYTES


@pytest.fixture
def bk():
    return make_bipartite_product(
        cycle_graph(5), complete_bipartite(2, 3).graph, Assumption.NON_BIPARTITE_FACTOR
    )


@pytest.fixture
def bk_ii():
    return make_bipartite_product(
        complete_bipartite(2, 2).graph, path_graph(5), Assumption.SELF_LOOPS_FACTOR
    )


@pytest.fixture
def chain(bk):
    return bk.chain


@pytest.fixture
def chain_ii(bk_ii):
    return bk_ii.chain


class TestChecksum:
    def test_content_checksum_ignores_container_bytes(self, chain, tmp_path):
        """Same data written under two codecs gives the same checksum
        even though the file bytes differ."""
        a = generate_chain_shards(chain, tmp_path / "a", n_shards=3, n_workers=1)
        b = generate_chain_shards(
            chain, tmp_path / "b", n_shards=3, n_workers=1, codec="deflate"
        )
        for pa, pb in zip(a, b):
            assert pa.read_bytes() != pb.read_bytes()
            assert shard_file_checksum(pa) == shard_file_checksum(pb)

    def test_checksum_depends_on_key_dtype_shape_data(self):
        base = {"p": np.arange(4, dtype=np.int64)}
        assert checksum_arrays(base) == checksum_arrays({"p": np.arange(4, dtype=np.int64)})
        assert checksum_arrays(base) != checksum_arrays({"q": np.arange(4, dtype=np.int64)})
        assert checksum_arrays(base) != checksum_arrays({"p": np.arange(4, dtype=np.int32)})
        assert checksum_arrays(base) != checksum_arrays(
            {"p": np.arange(4, dtype=np.int64).reshape(2, 2)}
        )
        assert checksum_arrays(base) != checksum_arrays({"p": np.arange(1, 5, dtype=np.int64)})

    def test_checksum_key_order_invariant(self):
        p, q = np.arange(3), np.arange(3, 6)
        assert checksum_arrays({"p": p, "q": q}) == checksum_arrays({"q": q, "p": p})

    def test_small_mapping_digest_is_pinned(self):
        arrays = {
            "p": np.arange(4, dtype=np.int64),
            "w": np.array([[1, -2], [3, 4]], dtype=np.int32),
        }
        assert checksum_arrays(arrays) == (
            "sha256:aae0f6012eca3fa1e662855262e4180ad0106d4c6b3c3ac45df15cc758582917"
        )

    @pytest.mark.parametrize("offset", [-8, 0, 8])
    def test_checksum_matches_openssl_across_the_threshold(self, offset):
        """Just below, at and just above :data:`OPENSSL_MIN_BYTES` of
        column bytes, the array and the streamed ``(length, chunks)``
        forms both equal ``hashlib.sha256`` over the same key, dtype,
        shape and bytes."""
        w = np.arange(-8, 8, dtype=np.int32).reshape(4, 4)
        p = np.random.default_rng(offset + 8).integers(
            -(2**62), 2**62, size=(OPENSSL_MIN_BYTES + offset - w.nbytes) // 8
        )
        assert p.nbytes + w.nbytes == OPENSSL_MIN_BYTES + offset
        reference = hashlib.sha256()
        for key, a in (("p", p), ("w", w)):
            reference.update(key.encode("utf-8"))
            reference.update(str(a.dtype).encode("ascii"))
            reference.update(repr(a.shape).encode("ascii"))
            reference.update(a.tobytes())
        expected = f"sha256:{reference.hexdigest()}"
        assert checksum_arrays({"w": w, "p": p}) == expected
        streamed = (p.size, np.array_split(p, 5))
        assert checksum_arrays({"w": w, "p": streamed}) == expected

    def test_builtin_sha256_below_the_threshold_openssl_from_it(self):
        """Small checksums hash with CPython's builtin SHA-256 (``_sha2``
        from 3.12, ``_sha256`` before), so checking a small artifact
        loads no OpenSSL; from the threshold on, ``hashlib``'s runs."""
        if platform.python_implementation() != "CPython":
            pytest.skip("the builtin SHA-256 modules are CPython's")
        builtin = importlib.import_module("_sha2" if sys.version_info >= (3, 12) else "_sha256")
        assert manifest._builtin_sha256 is builtin.sha256
        assert type(manifest._sha256_for(OPENSSL_MIN_BYTES - 1)) is type(builtin.sha256())
        assert type(manifest._sha256_for(OPENSSL_MIN_BYTES)) is type(hashlib.sha256())


class TestManifestRoundTrip:
    def test_round_trip(self, chain, tmp_path):
        generate_chain_shards(chain, tmp_path, n_shards=3, n_workers=2)
        manifest = load_manifest(tmp_path / MANIFEST_NAME)
        assert manifest.is_complete()
        assert sorted(manifest.shards) == [0, 1, 2]
        # write -> load is lossless
        write_manifest(manifest, tmp_path / "copy.json")
        again = load_manifest(tmp_path / "copy.json")
        assert again.signature == manifest.signature
        assert again.shards == manifest.shards

    def test_manifest_records_slices_and_sizes(self, bk, chain, tmp_path):
        paths = generate_chain_shards(chain, tmp_path, n_shards=3, n_workers=1)
        manifest = load_manifest(tmp_path)
        total_entries = sum(e.entries for e in manifest.shards.values())
        assert total_entries == bk.M.nnz * bk.B.graph.nnz
        assert manifest.shards[0].start == 0
        assert manifest.shards[2].stop == bk.n
        for k, path in enumerate(paths):
            assert manifest.shards[k].bytes == path.stat().st_size

    def test_atomic_write_leaves_no_temp(self, chain, tmp_path):
        generate_chain_shards(chain, tmp_path, n_shards=3, n_workers=1)
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix in (".tmp", ".part")]
        assert leftovers == []

    def test_version_gate(self, chain, tmp_path):
        generate_chain_shards(chain, tmp_path, n_shards=2, n_workers=1)
        payload = json.loads((tmp_path / MANIFEST_NAME).read_text())
        payload["manifest_version"] = 99
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(ManifestError, match="manifest_version"):
            load_manifest(tmp_path / MANIFEST_NAME)

    def test_missing_and_malformed(self, tmp_path):
        with pytest.raises(ManifestError, match="no manifest"):
            load_manifest(tmp_path / "nope.json")
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(ManifestError, match="not valid JSON"):
            load_manifest(tmp_path / "bad.json")


class TestIntegrityDetection:
    def test_verify_shards_clean(self, chain, tmp_path):
        generate_chain_shards(chain, tmp_path, n_shards=3, n_workers=2)
        manifest = verify_shards(tmp_path)
        assert manifest.is_complete()

    def test_load_shards_detects_tamper(self, bk, chain, tmp_path):
        paths = generate_chain_shards(chain, tmp_path, n_shards=3, n_workers=1)
        # Rewrite shard 1 with different data under the same keys.
        data = load_shards([paths[1]])
        data["p"][0] += 1
        write_edges_file(paths[1], data)
        with pytest.raises(ShardIntegrityError, match="shard_0001"):
            load_shards(paths, manifest=tmp_path)
        # Without a manifest the (corrupt) load still succeeds -- the
        # manifest is what buys detection.
        assert load_shards(paths)["p"].size == bk.M.nnz * bk.B.graph.nnz

    def test_load_shards_rejects_unrecorded_shard(self, chain, tmp_path):
        paths = generate_chain_shards(chain, tmp_path, n_shards=3, n_workers=1)
        rogue = tmp_path / "shard_9999.edges"
        write_edges_file(rogue, {"p": np.arange(2), "q": np.arange(2)})
        with pytest.raises(ShardIntegrityError, match="not recorded"):
            load_shards([*paths, rogue], manifest=tmp_path)

    def test_validate_manifest_reports_missing_and_corrupt(self, chain, tmp_path):
        paths = generate_chain_shards(chain, tmp_path, n_shards=3, n_workers=1)
        manifest = load_manifest(tmp_path)
        paths[0].unlink()
        raw = paths[2].read_bytes()
        paths[2].write_bytes(raw[: len(raw) // 2])  # torn file
        problems = validate_manifest(manifest, tmp_path)
        text = "\n".join(problems)
        assert "shard 0: missing file" in text
        assert "shard 2" in text
        with pytest.raises(ShardIntegrityError):
            verify_shards(tmp_path)

    def test_verify_shards_flags_incomplete(self, chain, tmp_path):
        generate_chain_shards(chain, tmp_path, n_shards=3, n_workers=1)
        manifest = load_manifest(tmp_path)
        del manifest.shards[1]
        write_manifest(manifest, tmp_path / MANIFEST_NAME)
        with pytest.raises(ShardIntegrityError, match="incomplete"):
            verify_shards(tmp_path)
        assert verify_shards(tmp_path, require_complete=False) is not None


class TestResume:
    def test_resume_skips_completed_shards(self, chain, tmp_path):
        paths = generate_chain_shards(chain, tmp_path, n_shards=3, n_workers=1)
        mtimes = [p.stat().st_mtime_ns for p in paths]
        with instrument() as (_, metrics):
            generate_chain_shards(chain, tmp_path, n_shards=3, n_workers=1, resume=True)
            snap = metrics.snapshot()
        assert snap["counters"]["parallel.generate.shards_skipped_total"] == 3
        assert snap["counters"].get("parallel.generate.shards_total", 0) == 0
        assert [p.stat().st_mtime_ns for p in paths] == mtimes  # untouched

    def test_resume_regenerates_tampered_shard(self, chain, tmp_path):
        paths = generate_chain_shards(chain, tmp_path, n_shards=3, n_workers=1)
        clean = load_manifest(tmp_path)
        paths[1].write_bytes(b"garbage")
        generate_chain_shards(chain, tmp_path, n_shards=3, n_workers=1, resume=True)
        resumed = verify_shards(tmp_path)
        assert resumed.shards[1].checksum == clean.shards[1].checksum

    def test_resume_signature_mismatch(self, chain, chain_ii, tmp_path):
        generate_chain_shards(chain, tmp_path, n_shards=3, n_workers=1)
        with pytest.raises(ManifestError, match="signature mismatch"):
            generate_chain_shards(chain_ii, tmp_path, n_shards=3, n_workers=1, resume=True)
        with pytest.raises(ManifestError, match="signature mismatch"):
            generate_chain_shards(chain, tmp_path, n_shards=4, n_workers=1, resume=True)
        with pytest.raises(ManifestError, match="signature mismatch"):
            generate_chain_shards(
                chain, tmp_path, n_shards=3, n_workers=1, ground_truth=True, resume=True
            )

    def test_resume_refuses_same_shape_different_factors(self, tmp_path):
        """Two factors of equal ``(n, nnz)`` but different edges: a
        resume must not mix their shards (the factor CSR hashes differ)."""
        a = KroneckerChain.from_graphs([cycle_graph(6), path_graph(3)])
        b = KroneckerChain.from_graphs(
            [cycle_graph(6).relabel([1, 0, 2, 3, 4, 5]), path_graph(3)]
        )
        assert [(f.n, f.nnz) for f in a.factors] == [(f.n, f.nnz) for f in b.factors]
        paths = generate_chain_shards(a, tmp_path, n_shards=3, n_workers=1, ground_truth=True)
        paths[1].unlink()
        with pytest.raises(ManifestError, match="fresh output directory"):
            generate_chain_shards(
                b, tmp_path, n_shards=3, n_workers=1, ground_truth=True, resume=True
            )

    def test_fresh_run_overwrites_old_manifest(self, chain, chain_ii, tmp_path):
        generate_chain_shards(chain_ii, tmp_path, n_shards=2, n_workers=1)
        generate_chain_shards(chain, tmp_path, n_shards=2, n_workers=1)  # no resume: fresh
        manifest = load_manifest(tmp_path)
        assert manifest.signature == chain_signature(chain, 2, False)

    def test_ground_truth_survives_resume(self, bk_ii, chain_ii, tmp_path):
        from repro.analytics import edge_squares_matrix

        paths = generate_chain_shards(
            chain_ii, tmp_path, n_shards=2, n_workers=1, ground_truth=True
        )
        generate_chain_shards(
            chain_ii, tmp_path, n_shards=2, n_workers=1, ground_truth=True, resume=True
        )
        data = load_shards(paths, manifest=tmp_path)
        dia_ref = edge_squares_matrix(bk_ii.materialize())
        for p, q, d in zip(data["p"].tolist(), data["q"].tolist(), data["squares"].tolist()):
            assert dia_ref[p, q] == d


class TestLegacyNpz:
    """Runs written before ``repro.edges/1`` became the only container."""

    def test_old_npz_manifest_fails_resume_with_the_fix(self, bk, chain, tmp_path):
        generate_chain_shards(chain, tmp_path, n_shards=3, n_workers=1)
        manifest = load_manifest(tmp_path)
        manifest.signature = {
            "n": int(bk.n), "m": int(bk.m), "nnz_left": int(bk.M.nnz),
            "nnz_right": int(bk.B.graph.nnz), "assumption": bk.assumption.name,
            "n_shards": 3, "ground_truth": False,
            "partition": "entries", "shard_format": "npz",
        }
        write_manifest(manifest, tmp_path / MANIFEST_NAME)
        with pytest.raises(ManifestError, match="use a fresh output directory"):
            generate_chain_shards(chain, tmp_path, n_shards=3, n_workers=1, resume=True)

    def test_npz_shard_is_refused_with_regenerate_hint(self, tmp_path):
        shard = tmp_path / "shard_0000.npz"
        with open(shard, "wb") as fh:  # np.savez would append ".npz" to a name
            np.savez(fh, p=np.arange(4), q=np.arange(4))
        with pytest.raises(EdgeFormatError, match="regenerate with `repro shards`"):
            load_shards([shard])
        with pytest.raises(EdgeFormatError, match="regenerate with `repro shards`"):
            shard_file_checksum(shard)
