"""Tests of the end-to-end benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Quick mode runs one short pass per phase, so these check the plumbing,
the answer checks and the pins, not the numbers.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import client  # noqa: E402
import gate  # noqa: E402


def run(*args: str, script: Path = HERE / "run.py", cwd: Path = ROOT, env=None, preexec_fn=None):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900, preexec_fn=preexec_fn,
    )


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_out(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("e2e-quick")
    proc = run("--seed", "0", "--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-4000:]
    return out


def test_quick_run_emits_every_end_to_end_metric(quick_out):
    report = json.loads((quick_out / "results.json").read_text())
    assert report["env"]["nproc"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    timing_units = {m["name"]: m["unit"] for m in gate.UNGATED}
    for workload in WORKLOADS:
        result = report["workloads"][workload]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units
        assert {name: m["unit"] for name, m in result["ungated"].items()} == timing_units
        for name, metric in {**result["metrics"], **result["ungated"]}.items():
            assert math.isfinite(metric["value"]) and metric["value"] > 0, (workload, name)


def test_traced_pass_writes_every_layer_metric(quick_out):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        trace = json.loads((quick_out / f"trace-{workload}.json").read_text())
        assert trace["correct"], trace["problems"]
        assert {name: m["unit"] for name, m in trace["metrics"].items()} == units
        assert all(math.isfinite(m["value"]) for m in trace["metrics"].values())
        assert trace["trace"]["generation"]["spans"] and trace["trace"]["serving"]["spans"]


def test_gen_chain_on_one_cpu_reports_generation_memory():
    """On one CPU, ``n_workers`` is 1 and the generator starts no pool:
    the shards are written by the generation child itself, whose memory
    ``peak_rss_mb`` must still read."""
    cpu = min(os.sched_getaffinity(0))
    proc = run("--workload", "gen-chain", "--seed", "1", "--trace", "0", "--quick",
               preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = last_json(proc)
    assert result["correct"] and result["metrics"]["peak_rss_mb"]["value"] > 0


def test_corrupted_pin_fails_the_run(tmp_path):
    copy = tmp_path / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    pins = json.loads((copy / "pins.json").read_text())
    pins["digests"]["0"]["gen-chain"] = "sha256:" + "0" * 64
    (copy / "pins.json").write_text(json.dumps(pins))
    proc = run("--workload", "gen-chain", "--seed", "0", "--trace", "0", "--quick", script=copy / "run.py")
    assert proc.returncode != 0
    result = last_json(proc)
    assert not result["correct"] and result["failed"] >= 1


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = run("--workload", "wire-small", "--seed", "0", "--seconds", "1", "--trace", "0",
               script=Path("benchmarks/e2e/run.py"), cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_window_client_completes_a_deep_burst(tmp_path):
    """5,120 frames of 1,024 edge queries: the burst shape that deadlocks
    ``WireClient.pipeline`` completes with a bounded window."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    art = tmp_path / "artifact"
    repro = [sys.executable, "-m", "repro"]
    subprocess.run(
        repro + ["pack", "konect-unicode", "konect-unicode", "--assumption", "ii",
                 "--allow-disconnected", "-o", str(art)],
        env=env, check=True, capture_output=True, timeout=300,
    )
    server = client.ServerProcess(
        repro + ["serve", "--artifact", str(art), "--port", "0", "--workers-procs", "1"], env
    )
    try:
        rng = np.random.default_rng(0)
        distinct = [
            client.wire_frame("edge_squares", rng.integers(0, 753_424, 1024), rng.integers(0, 753_424, 1024))
            for _ in range(64)
        ]
        frames = [distinct[i % 64] for i in range(5120)]
        with client.connect(server.host, server.port) as sock:
            payloads, statuses, rtts = client.drive_wire(sock, frames, window=8, timeout=60.0)
    finally:
        server.stop()
    assert len(payloads) == 5120 and not any(statuses)
    assert all(len(p) == 8 * 1024 for p in payloads)
    assert (rtts > 0).all()


def _run(t: float, value: float, failed: int = 0) -> dict:
    metrics = {"values_per_s": {"value": value, "unit": "1/s"}}
    return {"started_at": t, "workloads": {"w": {"attempted": 100, "failed": failed, "metrics": metrics}}}


SPEC_ONE = {"end_to_end": [{"name": "values_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}


def _pairs(parent: list[float], change: list[float], failed: int = 0):
    """Alternating pairs: parent first on even pairs, change first on odd."""
    a, b = [], []
    for i, (x, y) in enumerate(zip(parent, change)):
        first, second = (2 * i, 2 * i + 1) if i % 2 == 0 else (2 * i + 1, 2 * i)
        a.append(_run(first, x))
        b.append(_run(second, y, failed))
    return a, b


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        ([100 + i % 3 for i in range(10)], [101 - i % 3 for i in range(10)], "ok"),
        ([100 + i % 3 for i in range(10)], [80 + i % 3 for i in range(10)], "regression"),
        ([100 + i % 3 for i in range(10)], [120 + i % 3 for i in range(10)], "gain"),
        ([100, 60, 140, 100, 60, 140, 100, 60, 140, 100], [100] * 10, "unresolved"),
        ([100, 60, 140, 100, 60, 140, 100, 60, 140, 100], [80, 50, 110] * 3 + [80], "regression"),
    ],
)
def test_compare_verdicts(parent, change, verdict):
    a, b = _pairs(parent, change)
    lines, refused = gate.compare(a, b, SPEC_ONE)
    assert lines[0].endswith("(alternating)")
    assert f" {verdict} (bound 10%)" in lines[2]
    assert refused == (verdict == "regression")


@pytest.mark.parametrize("change, verdict", [(50, "ungated"), (120, "gain")])
def test_compare_never_refuses_an_ungated_timing(change, verdict):
    a, b = _pairs([100 + i % 3 for i in range(10)], [change + i % 3 for i in range(10)])
    for run in a + b:
        run["workloads"]["w"]["ungated"] = run["workloads"]["w"].pop("metrics")
    lines, refused = gate.compare(a, b, {"end_to_end": []})
    assert lines[2].startswith("w           values_per_s") and lines[2].endswith(f" {verdict}")
    assert not refused


def test_compare_refuses_more_failures():
    a, b = _pairs([100] * 10, [100] * 10, failed=1)
    lines, refused = gate.compare(a, b, SPEC_ONE)
    assert refused and "MORE FAILURES" in lines[-1]
