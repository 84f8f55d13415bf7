"""CLI pack/serve: artifact building and the full subprocess round-trip."""

from __future__ import annotations

import json
import os
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

from repro.cli import main
from repro.serve import SIDECAR_FILE, artifact_info, load_oracle

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_pack_cli_builds_loadable_artifact(tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["pack", "complete:3", "biclique:2x3", "-o", str(out)]) == 0
    info = artifact_info(out)
    assert "assumption" not in info
    assert info["factors"] == [{"n": 3, "nnz": 6}, {"n": 5, "nnz": 12}]
    oracle = load_oracle(out)
    assert oracle.n == info["product"]["n"]
    err = capsys.readouterr().err
    assert "packed oracle artifact" in err and "sha256:" in err


def test_pack_cli_assumption_ii(tmp_path):
    """Under 1(ii) the stored left factor is ``M = A + I_A``."""
    out = tmp_path / "art"
    assert main(["pack", "path:3", "biclique:2x2", "--assumption", "ii", "-o", str(out)]) == 0
    assert artifact_info(out)["factors"][0] == {"n": 3, "nnz": 4 + 3}
    assert [f.has_loops for f in load_oracle(out).chain.factors] == [True, False]


def test_pack_cli_three_factor_chain(tmp_path, capsys):
    """Three specs pack the chain as given; the 2-factor flags are refused."""
    out = tmp_path / "art"
    assert main(["pack", "complete:3", "path:3", "biclique:2x2", "-o", str(out)]) == 0
    info = artifact_info(out)
    assert [f["n"] for f in info["factors"]] == [3, 3, 4]
    assert info["product"] == {"n": 36, "m": 6 * 4 * 8 // 2}
    assert len(load_oracle(out, mmap=True).chain.factors) == 3
    argv = ["pack", "complete:3", "path:3", "biclique:2x2", "-o", str(tmp_path / "b")]
    assert main(argv + ["--assumption", "ii"]) == 2
    assert "two factor specs only" in capsys.readouterr().err


def test_serve_cli_refuses_a_schema_2_artifact(tmp_path, capsys):
    """A ``repro.serve/2`` artifact exits 2 with the repack remedy."""
    out = tmp_path / "art"
    assert main(["pack", "complete:3", "biclique:2x3", "-o", str(out)]) == 0
    info = json.loads((out / SIDECAR_FILE).read_text())
    info["schema"] = "repro.serve/2"
    (out / SIDECAR_FILE).write_text(json.dumps(info))
    capsys.readouterr()
    assert main(["serve", "--artifact", str(out), "--port", "0"]) == 2
    err = capsys.readouterr().err
    assert "'repro.serve/2'" in err and "repack it with `repro pack`" in err
    assert "Traceback" not in err


def test_pack_cli_malformed_spec_exits_2(tmp_path, capsys):
    assert main(["pack", "blorp:3", "path:4", "-o", str(tmp_path / "a")]) == 2
    assert "error:" in capsys.readouterr().err


def test_serve_cli_missing_artifact_exits_2(tmp_path, capsys):
    assert main(["serve", "--artifact", str(tmp_path / "nope"), "--port", "0"]) == 2
    assert "no oracle artifact" in capsys.readouterr().err


def _wait_for(predicate, timeout=20.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_pack_serve_http_round_trip(tmp_path):
    """The acceptance path: pack → serve → HTTP queries bit-identical to
    direct oracle calls, then a graceful SIGTERM shutdown (exit 0)."""
    art = tmp_path / "art"
    assert main(["pack", "complete:3", "biclique:2x3", "-o", str(art)]) == 0
    oracle = load_oracle(art)
    port = _free_port()
    env = {**os.environ, "PYTHONPATH": REPO_SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--artifact", str(art), "--port", str(port), "--max-queue", "32",
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    base = f"http://127.0.0.1:{port}"

    def up() -> bool:
        try:
            with urllib.request.urlopen(base + "/healthz", timeout=1) as resp:
                return resp.status == 200
        except (urllib.error.URLError, ConnectionError, OSError):
            return False

    try:
        assert _wait_for(up), "server did not come up"
        ps = list(range(oracle.n))
        req = urllib.request.Request(
            base + "/v1/squares/vertex", data=json.dumps({"ps": ps}).encode()
        )
        with urllib.request.urlopen(req, timeout=5) as resp:
            served = json.loads(resp.read())["squares"]
        assert served == oracle.squares_at_vertices(np.asarray(ps)).tolist()
        with urllib.request.urlopen(base + "/v1/global", timeout=5) as resp:
            assert json.loads(resp.read())["squares"] == oracle.global_squares()
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            rc = proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    stderr = proc.stderr.read()
    assert rc == 0, stderr
    assert "shut down after" in stderr


def test_flagless_serve_is_instrumented_by_default(tmp_path):
    """Regression: ``repro serve`` with NO obs flags must still answer
    ``/metrics`` with live labeled counters and a lintable Prometheus
    exposition — the serving telemetry is always on."""
    from repro.obs import lint_exposition

    art = tmp_path / "art"
    assert main(["pack", "complete:3", "biclique:2x3", "-o", str(art)]) == 0
    port = _free_port()
    env = {**os.environ, "PYTHONPATH": REPO_SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--artifact", str(art), "--port", str(port)],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    base = f"http://127.0.0.1:{port}"

    def up() -> bool:
        try:
            with urllib.request.urlopen(base + "/healthz", timeout=1) as resp:
                return resp.status == 200
        except (urllib.error.URLError, ConnectionError, OSError):
            return False

    try:
        assert _wait_for(up), "server did not come up"
        req = urllib.request.Request(
            base + "/v1/degree", data=json.dumps({"ps": [0]}).encode()
        )
        with urllib.request.urlopen(req, timeout=5) as resp:
            assert resp.status == 200

        with urllib.request.urlopen(base + "/metrics", timeout=5) as resp:
            body = json.loads(resp.read())
        counters = body["metrics"]["counters"]
        assert counters, "flagless serve produced an empty counter snapshot"
        degree_responses = [
            key
            for key in counters
            if key.startswith("serve.http.responses_total") and 'status="200"' in key
        ]
        assert degree_responses and all(counters[k] >= 1 for k in degree_responses)

        with urllib.request.urlopen(base + "/metrics?format=prometheus", timeout=5) as resp:
            text = resp.read().decode("utf-8")
        assert lint_exposition(text) == []
        assert (
            'repro_serve_http_responses_total{endpoint="v1_degree",status="200",worker="0"}'
            in text
        )
        assert (
            'repro_serve_http_latency_seconds_quantile{endpoint="v1_degree",quantile="0.5",worker="0"}'
            in text
        )
        assert 'quantile="0.99"' in text
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            rc = proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    assert rc == 0, proc.stderr.read()


def test_serve_parser_defaults():
    from repro.cli import build_parser

    from repro.serve.service import DEFAULT_CACHE_BYTES

    args = build_parser().parse_args(["serve", "--artifact", "x"])
    assert (args.port, args.max_queue, args.cache_mb) == (8571, 1024, 2.0)
    assert args.cache_mb * (1 << 20) == DEFAULT_CACHE_BYTES
    assert not hasattr(args, "cache_size")
    assert (args.workers_procs, args.protocol, args.no_mmap) == (1, "both", False)
    assert not hasattr(args, "workers")
    assert args.fn.__name__ == "_cmd_serve"


def test_serve_rejects_zero_workers_and_the_batcher_flag(tmp_path, capsys):
    """One front end: ``--workers-procs 0`` (the old threaded mode) and
    ``--workers`` (its batcher threads) are usage errors."""
    from repro.cli import build_parser

    art = tmp_path / "art"
    assert main(["pack", "complete:3", "biclique:2x3", "-o", str(art)]) == 0
    capsys.readouterr()
    assert main(["serve", "--artifact", str(art), "--port", "0", "--workers-procs", "0"]) == 2
    err = capsys.readouterr().err
    assert "workers must be >= 1" in err and "usage:" in err
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["serve", "--artifact", str(art), "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag,kwarg", [("--max-queue", "max_queue"), ("--cache-mb", "cache_bytes")])
def test_serve_rejects_negative_sizing_before_binding(flag, kwarg, capsys):
    """A negative queue cap or cache budget is a usage error at parse
    time (exit 2, nothing loaded or bound), and ``PreforkServer`` refuses
    it before ``start()`` -- a worker would otherwise crash-loop on it."""
    from repro.serve.prefork import PreforkServer

    with pytest.raises(SystemExit) as exc:
        main(["serve", "--artifact", "never-read", flag, "-1"])
    assert exc.value.code == 2
    assert f"argument {flag}: must be a finite value >= 0, got -1" in capsys.readouterr().err
    with pytest.raises(ValueError, match=f"{kwarg} must be >= 0, got -1"):
        PreforkServer("never-read", **{kwarg: -1})


def test_cache_size_flag_is_gone(capsys):
    """The cache is budgeted in bytes (``--cache-mb``), not entries."""
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--artifact", "never-read", "--cache-size", "4096"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache-size 4096" in capsys.readouterr().err


def test_pack_rejects_unwritable_dir(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    rc = main(["pack", "complete:3", "path:4", "-o", str(target)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_sidecar_survives_pack_cli(tmp_path):
    out = tmp_path / "art"
    main(["pack", "complete:3", "path:4", "-o", str(out)])
    sidecar = json.loads((out / SIDECAR_FILE).read_text())
    assert sidecar["schema"] == "repro.serve/3"
