"""Tests for the ``shards`` CLI command: fault-tolerant sharded generation.

Covers the operator-facing crash/resume workflow end to end: clean runs
verify, injected crashes exit with a distinct code and leave a usable
manifest, ``--resume`` completes the run with checksums identical to a
clean single pass, ``--verify`` catches tampering, and the shards of a
two- or three-factor run are the materialized product with brute-force
ground truth.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.generators import complete_bipartite, complete_graph, path_graph
from repro.kronecker import Assumption, make_bipartite_product
from repro.parallel import (
    MANIFEST_NAME,
    load_manifest,
    load_shards,
    verify_shards,
    write_edges_file,
)
from tests.shard_referee import assert_union_is_product, kron_graph

FACTORS = ["complete:3", "biclique:2x3"]


def _shards(*extra):
    return ["shards", *FACTORS, *extra]


class TestShardsCommand:
    def test_clean_run_verifies(self, tmp_path, capsys):
        rc = main(_shards("-o", str(tmp_path), "--shards", "4", "--workers", "2", "--verify"))
        assert rc == 0
        err = capsys.readouterr().err
        assert "4/4 shards complete" in err
        assert "verify: all shard checksums match" in err
        manifest = verify_shards(tmp_path)
        assert manifest.is_complete()

    def test_ground_truth_flag(self, tmp_path):
        rc = main(_shards("-o", str(tmp_path), "--shards", "2", "--ground-truth"))
        assert rc == 0
        data = load_shards(sorted(tmp_path.glob("shard_*.edges")), manifest=tmp_path)
        assert "squares" in data

    def test_crash_exits_3_then_resume_completes(self, tmp_path, capsys):
        crash = main(
            _shards(
                "-o", str(tmp_path), "--shards", "6", "--workers", "2",
                "--fault-rate", "0.5", "--fault-seed", "7", "--retries", "0",
            )
        )
        assert crash == 3
        err = capsys.readouterr().err
        assert "retry budget exhausted" in err
        assert "--resume" in err  # operator hint
        partial = load_manifest(tmp_path)
        assert 0 < len(partial.shards) < 6

        resume = main(
            _shards("-o", str(tmp_path), "--shards", "6", "--workers", "2", "--resume", "--verify")
        )
        assert resume == 0
        assert verify_shards(tmp_path).is_complete()

    def test_resume_matches_clean_checksums(self, tmp_path):
        main(
            _shards(
                "-o", str(tmp_path / "crash"), "--shards", "6",
                "--fault-rate", "0.5", "--fault-seed", "7", "--retries", "0",
            )
        )
        main(_shards("-o", str(tmp_path / "crash"), "--shards", "6", "--resume"))
        main(_shards("-o", str(tmp_path / "clean"), "--shards", "6"))
        a = load_manifest(tmp_path / "crash")
        b = load_manifest(tmp_path / "clean")
        assert {k: e.checksum for k, e in a.shards.items()} == {
            k: e.checksum for k, e in b.shards.items()
        }

    def test_retries_flag_survives_faults(self, tmp_path):
        rc = main(
            _shards(
                "-o", str(tmp_path), "--shards", "4", "--workers", "2",
                "--fault-rate", "0.4", "--fault-seed", "5", "--retries", "8", "--verify",
            )
        )
        assert rc == 0

    def test_resume_heals_tamper_and_verify_catches_it(self, tmp_path):
        from repro.parallel import ShardIntegrityError

        main(_shards("-o", str(tmp_path), "--shards", "3"))
        victim = tmp_path / "shard_0001.edges"
        write_edges_file(victim, {"p": np.arange(3), "q": np.arange(3)})
        with pytest.raises(ShardIntegrityError):
            verify_shards(tmp_path)
        # --resume reconciles against the manifest and regenerates the
        # tampered shard; --verify then passes end to end.
        rc = main(_shards("-o", str(tmp_path), "--shards", "3", "--resume", "--verify"))
        assert rc == 0

    def test_metrics_out_records_shard_run(self, tmp_path, capsys):
        record_path = tmp_path / "run.json"
        rc = main(
            _shards(
                "-o", str(tmp_path / "out"), "--shards", "3", "--workers", "1",
                "--fault-rate", "0.5", "--fault-seed", "1", "--retries", "8",
                "--metrics-out", str(record_path),
            )
        )
        assert rc == 0
        record = json.loads(record_path.read_text())
        counters = record["metrics"]["counters"]
        assert counters["parallel.generate.shards_total"] == 3
        assert counters.get("parallel.generate.retries_total", 0) >= 1
        span_names = {s["name"] for s in record["spans"]} | {
            c["name"] for s in record["spans"] for c in s.get("children", [])
        }
        assert "cli.shards" in span_names

    def test_manifest_name_constant(self, tmp_path):
        main(_shards("-o", str(tmp_path), "--shards", "2"))
        assert (tmp_path / MANIFEST_NAME).exists()


class TestScaleTierFlags:
    """Factor lists, --codec, and parse-time validation."""

    def test_two_spec_union_is_the_product(self, tmp_path):
        rc = main(_shards("-o", str(tmp_path), "--shards", "4", "--ground-truth", "--verify"))
        assert rc == 0
        bk = make_bipartite_product(
            complete_graph(3), complete_bipartite(2, 3), Assumption.NON_BIPARTITE_FACTOR
        )
        data = load_shards(sorted(tmp_path.glob("shard_*.edges")), manifest=tmp_path)
        assert_union_is_product(data, bk.materialize())

    def test_three_spec_union_is_the_product(self, tmp_path, capsys):
        rc = main(
            [
                "shards", "complete:3", "biclique:2x2", "path:3", "-o", str(tmp_path),
                "--shards", "3", "--workers", "2", "--ground-truth", "--verify",
            ]
        )
        assert rc == 0
        assert "verify: all shard checksums match" in capsys.readouterr().err
        product = kron_graph([complete_graph(3), complete_bipartite(2, 2).graph, path_graph(3)])
        data = load_shards(sorted(tmp_path.glob("shard_*.edges")), manifest=tmp_path)
        assert_union_is_product(data, product)

    @pytest.mark.parametrize("flag", [["--assumption", "ii"], ["--allow-disconnected"]])
    def test_three_specs_refuse_two_factor_flags(self, tmp_path, capsys, flag):
        rc = main(["shards", "complete:3", "path:2", "path:3", "-o", str(tmp_path), *flag])
        assert rc == 2
        assert "two factor specs only" in capsys.readouterr().err
        assert not tmp_path.exists() or not list(tmp_path.iterdir())

    def test_one_spec_is_a_usage_error(self, tmp_path, capsys):
        assert main(["shards", "complete:3", "-o", str(tmp_path)]) == 2
        assert "two or more factor specs" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_must_be_positive(self, tmp_path, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            main(_shards("-o", str(tmp_path), "--workers", workers))
        assert exc.value.code == 2
        assert f"argument --workers: must be a finite value >= 1, got {workers}" in (
            capsys.readouterr().err
        )
        assert not tmp_path.exists() or not list(tmp_path.iterdir())

    @pytest.mark.parametrize("codec", ["raw", "deflate"])
    def test_edges_format_writes_binary_shards(self, tmp_path, codec, capsys):
        rc = main(
            _shards(
                "-o", str(tmp_path), "--shards", "3",
                "--codec", codec, "--ground-truth", "--verify",
            )
        )
        assert rc == 0
        paths = sorted(tmp_path.glob("shard_*.edges"))
        assert len(paths) == 3
        assert not list(tmp_path.glob("shard_*.npz"))
        data = load_shards(paths, manifest=tmp_path)
        assert "squares" in data

    def test_signature_refuses_config_mixing(self, tmp_path, capsys):
        main(_shards("-o", str(tmp_path), "--shards", "3"))
        rc = main(_shards("-o", str(tmp_path), "--shards", "3", "--ground-truth", "--resume"))
        assert rc == 2
        assert "signature mismatch" in capsys.readouterr().err

    def test_resume_refuses_different_factors_of_same_shape(self, tmp_path, capsys):
        """pa:16:2:0 and pa:16:2:1 share (n, nnz) but differ in edges: a
        resume across them must refuse, not report a verified mix."""
        base = ["biclique:2x3", "-o", str(tmp_path), "--ground-truth"]
        assert main(["shards", "pa:16:2:0", *base]) == 0
        next(tmp_path.glob("shard_0001.*")).unlink()
        capsys.readouterr()
        rc = main(["shards", "pa:16:2:1", *base, "--resume", "--verify"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "signature mismatch" in err and "fresh output directory" in err
        assert "verify:" not in err

    def test_crash_resume_under_edges_format(self, tmp_path, capsys):
        crash = main(
            _shards(
                "-o", str(tmp_path), "--shards", "6", "--workers", "2", "--codec", "deflate",
                "--fault-rate", "0.5", "--fault-seed", "7", "--retries", "0",
            )
        )
        assert crash == 3
        capsys.readouterr()
        partial = load_manifest(tmp_path)
        assert 0 < len(partial.shards) < 6
        resume = main(
            _shards(
                "-o", str(tmp_path), "--shards", "6", "--workers", "2", "--codec", "deflate",
                "--resume", "--verify",
            )
        )
        assert resume == 0
        assert verify_shards(tmp_path).is_complete()
