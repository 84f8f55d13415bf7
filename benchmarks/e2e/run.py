"""End-to-end benchmark for ground-truth generation and serving.

Run from the repository root (the program is imported from ``src/``)::

    python benchmarks/e2e/run.py --workload wire-small --seed 0 --seconds 10 --trace 0
    python benchmarks/e2e/run.py --seed 0 --out DIR
    python benchmarks/e2e/run.py compare A/ B/

With ``--workload`` one workload runs in this process.  It prints each
metric as ``workload metric value unit`` and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` measures the end-to-end metrics of BENCHMARK.json, and
prints the ungated timings of ``gate.UNGATED`` as ``... (ungated)``
lines; ``--trace 1`` runs the traced pass for the per-layer metrics.  With
``--out DIR`` it also writes ``DIR/result-<workload>.json`` or
``DIR/trace-<workload>.json`` (answer digest, failures, and the span
trees of the traced pass).

Without ``--workload``, ``--out DIR`` is required: every workload runs
in a fresh process, untraced and then traced, and ``DIR/results.json``
collects the end-to-end results with the host's env block.

``compare`` applies BENCHMARK.json to two directories of results (see
``gate.py``).  ``--quick`` runs one short pass per phase to check the
plumbing; its numbers mean nothing.

Every exit code is non-zero when an operation failed or an answer
differed from the reference or from the pins in ``pins.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
#: Work space beside this file (ignored by git); each run removes its own
#: subdirectory, and the last run to finish removes the directory.
WORK_DIR = HERE / ".work"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload_names(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def parse_args(argv: list[str]) -> argparse.Namespace:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names(spec))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.workload is None and args.out is None:
        parser.error("pass --workload NAME, or --out DIR to run every workload")
    return args


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports repro: fails outside a checkout of the program

    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    ungated = () if args.trace else gate.UNGATED
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    cfg = workloads.Config(args.seed, args.seconds, args.quick, ROOT, work, pins)
    tally = workloads.Tally()
    outcome = workloads.Outcome(metrics={})
    try:
        if args.trace:
            outcome = workloads.traced_pass(cfg, args.workload, tally)
        else:
            outcome = workloads.MEASURE[args.workload](cfg, tally)
    except Exception as exc:  # the run must still report its failure
        traceback.print_exc()
        tally.record(1, 1, f"{args.workload} aborted: {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    pinned = pins["digests"].get(str(args.seed), {}).get(args.workload)
    if outcome.digest and pinned:
        tally.record(1, int(outcome.digest != pinned), f"answer digest {outcome.digest} != pinned {pinned}")
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing and tally.failed == 0:
        tally.record(1, 1, f"metrics not measured: {missing}")
    result = {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": measured(outcome.metrics, wanted),
    }
    timings = measured(outcome.metrics, ungated)
    for problem in tally.problems:
        print(f"{args.workload}: FAILED {problem}", file=sys.stderr)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        kind = "trace" if args.trace else "result"
        record = dict(result, seed=args.seed, digest=outcome.digest, problems=tally.problems)
        if timings:
            record["ungated"] = timings
        if outcome.trace:
            record["trace"] = outcome.trace
        (args.out / f"{kind}-{args.workload}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    for name, metric in timings.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']} (ungated)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measured(values: dict[str, float], metrics) -> dict[str, dict]:
    """``{name: {value, unit}}`` for each of ``metrics`` in ``values``."""
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in metrics
        if m["name"] in values
    }


def env_block() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_rev": rev,
        "nproc": len(os.sched_getaffinity(0)),
        "host": platform.node(),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process, untraced then traced."""
    args.out.mkdir(parents=True, exist_ok=True)
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "started_at": time.time(),
        "env": env_block(),
        "workloads": {},
        "trace": {},
    }
    rc = 0
    for workload in workload_names(load_spec()):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(args.out)]
            if args.quick:
                cmd.append("--quick")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            for line in lines[:-1]:
                print(line, flush=True)
            record = args.out / f"result-{workload}.json"
            if not trace and record.exists():
                result["ungated"] = json.loads(record.read_text()).get("ungated", {})
            report["trace" if trace else "workloads"][workload] = result
            rc |= proc.returncode != 0 or not result["correct"]
    path = args.out / "results.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 1 if rc else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return gate.main(argv[1:], load_spec())
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("error: no src/repro here; run from the root of a checkout", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
