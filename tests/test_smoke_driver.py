"""The smoke driver (``benchmarks/smoke.py``) without running any bench:
its field checks against the committed records, its restore-on-failure
contract, and CI calling it as the single definition of the re-check."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_smoke():
    spec = importlib.util.spec_from_file_location("smoke", REPO_ROOT / "benchmarks" / "smoke.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["smoke"] = module
    spec.loader.exec_module(module)
    return module


smoke = _load_smoke()
BENCH_FAMILIES = [name for name, fam in smoke.FAMILIES.items() if fam.bench]


def _committed(name):
    return json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())


def _row(record, bench):
    return next(row for row in record["benches"] if row["bench"] == bench)


def test_family_table_covers_every_feature():
    assert list(smoke.FAMILIES) == [
        "generation", "parallel", "kernels", "serve", "obs", "scale", "wings", "shards",
    ]
    for name in BENCH_FAMILIES:
        assert (REPO_ROOT / "benchmarks" / f"bench_{name}.py").is_file()
    for name, fam in smoke.FAMILIES.items():
        assert not fam.drill or fam.verify, f"{name}: a drill needs a verify tier"


@pytest.mark.parametrize("name", BENCH_FAMILIES)
def test_field_checks_accept_committed_record(name):
    assert smoke.field_failures(smoke.FAMILIES[name].checks, _committed(name)) == []


def _wing_over_bound(row):
    row["max_wing"] = row["max_wing_bound"] + 1


@pytest.mark.parametrize(
    "name,bench,mutate",
    [
        ("wings", "test_peel_vs_oracle_bounds", _wing_over_bound),
        ("scale", "test_degree_partitioner_imbalance", lambda r: r.update(degree_imbalance=1.5)),
        ("scale", "test_degree_partitioner_imbalance", lambda r: r.update(rows_imbalance=1.9)),
        # A writer holding whole shards: ~2.6x the large shard's 338 MB.
        ("scale", "test_shard_write_memory", lambda r: r.update(growth_delta_mb=880.0)),
        ("obs", "test_event_log_emit_flush_throughput", lambda r: r.update(dropped=1)),
        ("kernels", "test_batched_vs_scalar_vertex_queries", lambda r: r.pop("throughput_ratio")),
        ("serve", "test_serve_prefork_wire_pipeline", lambda r: r.update(protocol="json")),
        ("generation", "test_generation_throughput", lambda r: r.pop("directed_entries")),
    ],
)
def test_field_checks_reject_mutated_record(name, bench, mutate):
    record = copy.deepcopy(_committed(name))
    mutate(_row(record, bench))
    failures = smoke.field_failures(smoke.FAMILIES[name].checks, record)
    assert failures and all(f.startswith(bench) for f in failures), failures


def test_field_checks_reject_missing_row():
    record = copy.deepcopy(_committed("wings"))
    record["benches"] = [r for r in record["benches"] if r["bench"] != "test_chain_wing_stream"]
    assert smoke.field_failures(smoke.FAMILIES["wings"].checks, record)


def test_committed_record_restored_when_bench_raises(tmp_path, monkeypatch):
    committed = (REPO_ROOT / "BENCH_wings.json").read_bytes()
    record = tmp_path / "BENCH_wings.json"
    record.write_bytes(committed)

    def crashing_run(cmd, **kwargs):
        record.write_text('{"half": "written"')  # the bench died mid-flush
        raise RuntimeError("bench crashed")

    monkeypatch.setattr(smoke, "ROOT", tmp_path)
    monkeypatch.setattr(smoke, "run", crashing_run)
    with pytest.raises(RuntimeError, match="bench crashed"):
        smoke.run_family("wings")
    assert record.read_bytes() == committed
    assert (tmp_path / "smoke-out" / "wings" / "baseline_BENCH_wings.json").read_bytes() == committed


def test_failing_family_fails_the_run(tmp_path, monkeypatch):
    def failing_run(cmd, **kwargs):
        raise smoke.SmokeFailure("drill caught nothing")

    monkeypatch.setattr(smoke, "ROOT", tmp_path)
    monkeypatch.setattr(smoke, "run", failing_run)
    assert smoke.main(["shards"]) == 1
    assert smoke.main(["no-such-family"]) == 2


def test_ci_runs_the_driver_as_the_single_recheck():
    yaml = pytest.importorskip("yaml")
    ci = yaml.safe_load((REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text())
    jobs = ci["jobs"]
    smoke_runs = [step.get("run", "") for step in jobs["smoke"]["steps"]]
    assert any("python benchmarks/smoke.py" in run for run in smoke_runs)
    for job_name, job in jobs.items():
        for step in job["steps"]:
            run = step.get("run", "")
            assert "compare.py" not in run, (job_name, step.get("name"))
            assert "load_run_record" not in run, (job_name, step.get("name"))
