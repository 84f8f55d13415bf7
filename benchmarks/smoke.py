"""Smoke driver: re-check every feature's recorded numbers, locally or in CI.

    PYTHONPATH=src python benchmarks/smoke.py [FAMILY ...]   # default: all

One loop runs each family of ``FAMILIES``: copy the committed
``BENCH_<f>.json`` aside; ``REPRO_BENCH_QUICK=1 pytest
benchmarks/bench_<f>.py``; validate the fresh record (``python -m
repro.obs`` plus the family's field checks); gate it with ``compare.py
--max-regression 0.25`` against the committed copy; run the family's
extra steps (the serve family boots live pre-fork servers); run its
``repro verify`` tier and check the report; run its
perturbation drill, which must exit 4.  Outputs land in
``smoke-out/<f>/`` and the committed record is restored in a
``finally``.  Exit status 0 means every family passed.
"""

from __future__ import annotations

import fnmatch
import http.client
import json
import operator
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
import traceback
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from repro.obs import read_events
from repro.parallel import load_manifest, read_shard_arrays
from repro.serve import WireClient, artifact_info, load_oracle

ROOT = Path(__file__).resolve().parent.parent
MAX_REGRESSION = "0.25"
DIVERGENCE_EXIT = 4  # ``repro verify`` found a divergence
RETRIES_EXHAUSTED_EXIT = 3  # ``repro shards`` ran out of retries
SPEC = ["complete:3", "biclique:2x3"]  # the small product the shards and serve drills use
CHAIN_SPEC = [*SPEC, "path:3"]  # a three-factor chain: the cross-codec drill's deep path
SHARD_MEMORY_MARGIN_MB = 16.0  # scale: large-minus-small shard write RSS growth
WALK_TABLE_PEAK_MIB = 32.0  # generation: a few 2**16-wedge blocks of the numpy pass


class Field(str):
    """A check bound naming another field of the same row."""


# (bench row, or a glob over rows, field, operator, bound)
Check = tuple[str, str, str, object]
OPS: dict[str, Callable[[object, object], bool]] = {
    ">": operator.gt, ">=": operator.ge, "<=": operator.le, "==": operator.eq,
    "set": lambda value, _: bool(value)}


class SmokeFailure(Exception):
    """A smoke check failed; the message names it."""


def run(cmd: Sequence[str], *, env: Optional[dict] = None, expect: Optional[int] = 0,
        capture: bool = False) -> subprocess.CompletedProcess:
    """Run ``cmd`` from the repository root with ``src`` importable and
    require exit code ``expect`` (``None``: any non-zero code)."""
    print("+", " ".join(cmd))
    proc = subprocess.run(
        cmd, cwd=ROOT, text=True, capture_output=capture,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **(env or {})},
    )
    if capture:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
    ok = proc.returncode != 0 if expect is None else proc.returncode == expect
    if not ok:
        want = "non-zero" if expect is None else expect
        raise SmokeFailure(f"{' '.join(cmd[1:5])} ... exited {proc.returncode}, want {want}")
    return proc


def py(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return run([sys.executable, *args], **kwargs)


def need(ok: bool, what: str) -> None:
    if not ok:
        raise SmokeFailure(what)


def field_failures(checks: Sequence[Check], record: dict) -> list[str]:
    """Every field check the record's rows fail (empty when all pass)."""
    rows = {row["bench"]: row for row in record["benches"]}
    failures = []
    for bench, field, op, bound in checks:
        for name in fnmatch.filter(rows, bench) or [bench]:
            row = rows.get(name, {})
            value = row.get(field)
            ref = row.get(bound) if isinstance(bound, Field) else bound
            try:
                ok = OPS[op](value, ref)
            except TypeError:
                ok = False
            if not ok:
                failures.append(f"{name}.{field} = {value!r}, want {op} {bound!r} ({ref!r})")
    return failures


def check_report(path: Path, *, tier: str, min_cases: int, perturbation: Optional[str]) -> None:
    """Check a ``repro verify`` report: a clean pass, or a caught drill."""
    report = json.loads(path.read_text())
    need(report["tier"] == tier and report["perturbation"] == perturbation,
         f"{path.name}: tier {report['tier']!r}, perturbation {report['perturbation']!r}")
    if perturbation is None:
        need(report["passed"] is True and report["divergences"] == 0
             and report["cases"] >= min_cases,
             f"{path.name}: {report['divergences']} divergences in {report['cases']} cases")
    else:
        need(report["divergences"] > 0, f"{path.name}: drill caught nothing")
        need("edges" in report["witnesses"][0]["factors"]["A"],
             "witness must carry reproducible factors")
    print(f"{path.name} ok: {report['cases']} cases, {report['divergences']} divergences")


# Family-specific extra steps; each takes the family's output directory.


def cli_profile_smoke(out: Path) -> None:
    """``--profile`` / ``--metrics-out`` on the ground-truth generate stream."""
    py("-m", "repro", "generate", "complete:3", "path:4", "--ground-truth", "--profile",
       "--metrics-out", str(out / "run.json"), "-o", str(out / "edges.txt"))
    py("-m", "repro.obs", str(out / "run.json"))


def gate_drill(out: Path) -> None:
    """The gate must bite: a clone with one throughput inflated 10x is a
    same-mode baseline the fresh record regresses against."""
    record = json.loads((out / "BENCH_serve.json").read_text())
    row = {r["bench"]: r for r in record["benches"]}["test_serve_throughput_vs_concurrency"]
    row["queries_per_s"] *= 10.0
    (out / "inflated_baseline.json").write_text(json.dumps(record))
    py("benchmarks/compare.py", str(out / "inflated_baseline.json"), str(out / "BENCH_serve.json"),
       "--max-regression", MAX_REGRESSION, expect=None)


def _boot_server(out: Path, artifact: Path, name: str, *args: str) -> tuple[subprocess.Popen, int]:
    """``repro serve`` on a free port, once ``/healthz`` answers; its
    stderr goes to ``out/<name>.log``."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    cmd = [sys.executable, "-m", "repro", "serve", "--artifact", str(artifact),
           "--port", str(port), *args]
    print("+", " ".join(cmd))
    with open(out / f"{name}.log", "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, stderr=log,
                                env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    deadline = time.monotonic() + 30.0
    while True:
        try:
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=1):
                return proc, port
        except OSError:
            need(proc.poll() is None and time.monotonic() < deadline,
                 f"{name} server never became healthy (see {name}.log)")
            time.sleep(0.2)


def _check_cache_budgets(port: int, workers: int, n: int) -> None:
    """Every worker caches an answer and scrapes ``0 < cache_bytes <=
    cache_budget_bytes`` on ``/metrics``.  A keep-alive connection stays
    on one worker, so a query and a scrape on one connection read the
    same worker's cache; fresh connections reach the others."""
    seen: dict[str, tuple[float, float]] = {}
    for attempt in range(50 * workers):
        if len(seen) == workers:
            break
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("POST", "/v1/degree", body=json.dumps({"ps": [attempt % n]}))
            conn.getresponse().read()
            conn.request("GET", "/metrics?format=prometheus")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        samples = re.findall(
            r'^repro_serve_service_(cache_bytes|cache_budget_bytes)\{worker="(\d+)"\} (\S+)$',
            text, re.M)
        gauges = {name: float(value) for name, _, value in samples}
        seen[samples[0][1]] = (gauges["cache_bytes"], gauges["cache_budget_bytes"])
    need(len(seen) == workers, f"scraped {len(seen)} of {workers} workers: {sorted(seen)}")
    for worker, (used, budget) in sorted(seen.items()):
        need(0 < used <= budget, f"worker {worker}: cache_bytes {used:g}, budget {budget:g}")
    print(f"cache budgets ok on port {port}:",
          ", ".join(f"worker {w} {u:g}/{b:g} B" for w, (u, b) in sorted(seen.items())))


def _state(pid: int) -> tuple[str, int]:
    """``(state, ppid)`` of a process from ``/proc/<pid>/stat``; a process
    that is gone reads as a zombie (``"Z"``), since both have exited."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return "Z", 0
    return fields[0], int(fields[1])


def _live_children(pid: int) -> list[int]:
    """Processes whose parent is ``pid`` and that have not exited."""
    children = []
    for path in Path("/proc").glob("[0-9]*"):
        state, ppid = _state(int(path.name))
        if ppid == pid and state != "Z":
            children.append(int(path.name))
    return children


def _check_workers_scipy_free(master: subprocess.Popen, workers: int) -> None:
    """No live worker maps a scipy extension module: the served oracle
    reads the artifact's CSR triples with numpy alone."""
    pids = _live_children(master.pid)
    need(len(pids) == workers, f"found {len(pids)} of {workers} workers under {master.pid}")
    for pid in pids:
        maps = Path(f"/proc/{pid}/maps").read_text()
        scipy = sorted({line.split()[-1] for line in maps.splitlines()
                        if "/scipy/" in line and ".so" in line})
        need(not scipy, f"worker {pid} maps scipy extension modules: {scipy[:3]}")
    print(f"scipy-free workers ok: {len(pids)} workers map no scipy extension module")


def _orphan_drill(master: subprocess.Popen, port: int) -> None:
    """SIGKILL the master: no shutdown code runs, yet every worker must
    exit and the port refuse connections within 5 s."""
    workers = _live_children(master.pid)
    need(bool(workers), f"no workers under {master.pid}")
    master.kill()
    master.wait(timeout=10)
    deadline = time.monotonic() + 5.0
    while True:
        alive = [pid for pid in workers if _state(pid)[0] != "Z"]
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            refused = False
        except OSError:
            refused = True
        if not alive and refused:
            break
        if time.monotonic() >= deadline:
            for pid in alive:
                os.kill(pid, signal.SIGKILL)
            raise SmokeFailure(f"workers {alive} outlived their SIGKILLed master "
                               f"(port {port} refused: {refused})")
        time.sleep(0.1)
    print(f"orphan drill ok: {len(workers)} worker(s) exited with their master")


def serve_probe(out: Path) -> None:
    """Live pre-fork servers, 1 worker and 4 workers speaking both
    protocols: artifact schema and a known edge, wire answers equal to
    JSON answers and the direct oracle, every worker's cache within its
    budget, no worker mapping scipy, merged worker metrics on drain, and
    no worker outliving a SIGKILLed master."""
    artifact = out / "serve_artifact"
    py("-m", "repro", "pack", *SPEC, "-o", str(artifact))
    assert artifact_info(artifact)["schema"] == "repro.serve/2"
    # A known product edge (P, Q) for the edge endpoints.
    oracle = load_oracle(artifact)
    grid = np.indices((oracle.n, oracle.n)).reshape(2, -1)
    valid = oracle.has_edges(grid[0], grid[1])
    P, Q = int(grid[0][valid][0]), int(grid[1][valid][0])
    run_record = out / "prefork_run.json"
    servers = []
    try:
        one, port_one = _boot_server(out, artifact, "one_worker")
        servers.append(one)
        four, port_four = _boot_server(out, artifact, "four_workers", "--workers-procs", "4",
                                       "--protocol", "both", "--metrics-out", str(run_record))
        servers.append(four)

        def post(port: int, path: str, body: dict) -> dict:
            req = urllib.request.Request(f"http://127.0.0.1:{port}{path}",
                                         data=json.dumps(body).encode())
            with urllib.request.urlopen(req, timeout=10) as resp:
                return json.loads(resp.read())

        edge = post(port_one, "/v1/squares/edge", {"p": P, "q": Q})["squares"]
        need(edge == [oracle.squares_at_edge(P, Q)], f"edge ({P}, {Q}) answered {edge}")
        # Binary wire protocol answers match JSON and the direct oracle.
        ps = list(range(oracle.n))
        eps, eqs = grid[0][valid], grid[1][valid]
        with WireClient("127.0.0.1", port_four) as client:
            wire_deg = client.degrees(ps)
            wire_global = client.global_squares()
            wire_wings = client.wings_at_edges(eps, eqs)
        assert np.array_equal(wire_deg, oracle.degrees(np.asarray(ps)))
        assert wire_global == oracle.global_squares()
        assert np.array_equal(wire_wings, oracle.wings_at_edges(eps, eqs))
        json_deg = post(port_four, "/v1/degree", {"ps": ps})["degrees"]
        assert wire_deg.tolist() == json_deg
        # /v1/wings answers are bit-identical across the 1-worker JSON
        # front, the 4-worker JSON front, and the wire opcode above.
        for port in (port_one, port_four):
            json_wings = post(port, "/v1/wings", {"ps": eps.tolist(), "qs": eqs.tolist()})["wings"]
            assert wire_wings.tolist() == json_wings, port
        print(f"wire ok: {len(ps)} degrees + global + {eps.size} wing bounds "
              "identical across protocols")
        _check_cache_budgets(port_one, 1, oracle.n)
        _check_cache_budgets(port_four, 4, oracle.n)
        _check_workers_scipy_free(four, 4)
        _orphan_drill(one, port_one)
        # Drain the pre-fork server (SIGTERM; all workers must report).
        four.send_signal(signal.SIGTERM)
        try:
            four.wait(timeout=15)
        except subprocess.TimeoutExpired:
            raise SmokeFailure("pre-fork server did not drain") from None
        py("-m", "repro.obs", str(run_record))
        counters = json.loads(run_record.read_text())["metrics"]["counters"]
        wire = [k for k in counters if k.startswith("serve.wire.responses_total")]
        http = [k for k in counters if k.startswith("serve.http.responses_total")]
        assert wire and http, sorted(counters)
        print("merged worker metrics ok:", len(wire), "wire series,", len(http), "http series")
    finally:
        for proc in servers:
            if proc.poll() is None:
                proc.terminate()
                proc.wait(timeout=15)


def shard_drills(out: Path) -> None:
    """Crash/resume, killed-worker and cross-codec drills on ``repro shards``."""
    def shards(out_dir: str, *args: str, spec=SPEC, **kwargs):
        return py("-m", "repro", "shards", *spec, "--out-dir", str(out / out_dir),
                  "--workers", "2", *args, **kwargs)

    # Crash mid-flight; the event log must survive without a torn line.
    events = str(out / "crash_events.jsonl")
    shards("crash", "--shards", "6", "--fault-rate", "0.5", "--fault-seed", "7",
           "--retries", "0", "--events-out", events, expect=RETRIES_EXHAUSTED_EXIT)
    need((out / "crash" / "manifest.json").is_file(), "crashed run left no manifest")
    kinds = {e["kind"] for e in read_events(events, strict=True)}
    need(Path(events).read_bytes().endswith(b"\n"), "event log must end with a complete line")
    need({"shards.planned", "task.failed"} <= kinds, f"crash event kinds {sorted(kinds)}")
    # Resume, render it, and match a clean pass checksum for checksum.
    shards("crash", "--shards", "6", "--resume", "--verify", "--profile", "--events-out", events)
    top = py("-m", "repro", "top", "--events", events, "--once", capture=True).stdout
    (out / "top.txt").write_text(top)
    need(re.search(r"shards +\[#+\] 6/6", top) is not None, "repro top lacks shards 6/6")
    shards("clean", "--shards", "6", "--verify")
    crash, clean = load_manifest(out / "crash"), load_manifest(out / "clean")
    need(crash.is_complete() and clean.is_complete(), "incomplete manifest after resume")
    diverged = [k for k in clean.shards if crash.shards[k].checksum != clean.shards[k].checksum]
    need(not diverged, f"crash/resume checksum divergence in shards {diverged}")
    # A worker killed by os._exit: pool rebuilt, retried, log intact.
    kill_events = str(out / "kill_events.jsonl")
    shards("kill", "--shards", "4", "--fault-rate", "0.3", "--fault-seed", "2",
           "--fault-mode", "kill", "--retries", "4", "--verify", "--events-out", kill_events)
    need(any(e["kind"] == "shards.finished" for e in read_events(kill_events, strict=True)),
         "kill drill never finished")
    # Every codec decodes a three-factor chain to the same content
    # (checksums hash decoded arrays).
    codecs = ["raw", "deflate"]
    unions = {}
    for codec in codecs:
        shards(f"codec_{codec}", "--shards", "4", "--codec", codec,
               "--ground-truth", "--verify", spec=CHAIN_SPEC)
        manifest = load_manifest(out / f"codec_{codec}")
        need(manifest.is_complete(), f"{codec} run incomplete")
        raw = load_manifest(out / "codec_raw")
        diverged = [k for k, shard in manifest.shards.items()
                    if shard.checksum != raw.shards[k].checksum]
        need(not diverged, f"{codec} shard checksums differ from raw in {diverged}")
        arrays = [read_shard_arrays(p, verify=True)
                  for p in sorted((out / f"codec_{codec}").glob("shard_*")) if p.suffix != ".json"]
        union = np.concatenate([np.stack([a["p"], a["q"], a["squares"]]) for a in arrays], axis=1)
        unions[codec] = union[:, np.lexsort(union[::-1])]
        need(np.array_equal(unions[codec], unions["raw"]), f"{codec} decoded union differs")
    print(f"cross-codec ok: {unions['raw'].shape[1]:,} entries identical across {codecs}")


@dataclass(frozen=True)
class Family:
    bench: bool = True  # benchmarks/bench_<f>.py recording BENCH_<f>.json
    checks: tuple[Check, ...] = ()
    verify: tuple[str, ...] = ()  # ``repro verify`` arguments of the referee tier
    min_cases: int = 1
    drill: Optional[str] = None  # ``--perturb`` value; must exit 4
    extras: tuple[Callable[[Path], None], ...] = ()


FAMILIES: dict[str, Family] = {
    "generation": Family(
        checks=(("test_generation_throughput", "directed_entries", ">", 0),
                ("test_stream_with_ground_truth_attached", "gt_entries_per_s", ">", 0),
                ("test_chain_setup", "setup_seconds", ">", 0),
                # The digit-descent plan equals the row bisection's; no
                # speed threshold, the record carries both timings.
                ("test_plan_partition", "plan_matches_referee", "==", 1),
                ("test_plan_partition", "plan_seconds", ">", 0),
                # The numpy walk tables hold a few blocks of wedges, never
                # X², and trace no more than the scipy form they replaced.
                ("test_walk_tables", "max_numpy_peak_mib", "<=", WALK_TABLE_PEAK_MIB),
                ("test_walk_tables", "pa_numpy_peak_mib", "<=", Field("pa_scipy_peak_mib")),
                # The direct 4-cycle counter equals the SpGEMM referee;
                # no speed threshold, the record carries both timings.
                ("test_walk_tables", "counter_matches_referee", "==", 1)),
        extras=(cli_profile_smoke,)),
    "parallel": Family(checks=(
        ("test_shard_generation_fault_tolerance", "directed_entries", ">", 0),)),
    "kernels": Family(
        checks=(("test_edge_squares_product_fused_vs_legacy", "speedup", ">", 0),
                ("test_batched_vs_scalar_vertex_queries", "throughput_ratio", ">", 0)),
        verify=("--seed", "0", "--trials", "20", "--max-factor-size", "4"),
        drill="beta-sign"),
    "serve": Family(
        checks=(("test_serve_throughput_vs_concurrency", "queries_per_s", ">", 0),
                ("test_serve_cache_on_vs_off", "cache_hit_rate", ">", 0),
                ("test_serve_http_round_trip", "http_requests_per_s", ">", 0),
                # The pre-fork trajectory rows carry protocol + worker levels.
                ("test_serve_prefork_http_keepalive", "protocol", "==", "json"),
                ("test_serve_prefork_wire_pipeline", "protocol", "==", "wire"),
                ("test_serve_prefork_*", "requests_per_s", ">", 0),
                ("test_serve_prefork_*", "levels", "set", None)),
        extras=(gate_drill, serve_probe)),
    "obs": Family(checks=(
        ("test_stream_overhead_enabled_vs_null", "null_edges_per_s", ">", 0),
        ("test_stream_overhead_enabled_vs_null", "enabled_edges_per_s", ">", 0),
        ("test_event_log_emit_flush_throughput", "dropped", "==", 0))),
    "scale": Family(
        checks=(("test_stream_throughput_droop", "entries_per_s", ">", 0),
                ("test_stream_throughput_droop", "large_entries", ">", Field("small_entries")),
                # Degree-aware cuts stay balanced where naive row ranges skew.
                ("test_degree_partitioner_imbalance", "degree_imbalance", "<=", 1.3),
                ("test_degree_partitioner_imbalance", "rows_imbalance", ">=", 2.0),
                # Writer memory is flat in shard size: the ~10x larger
                # shard's peak RSS growth stays within a fixed margin of
                # the small one's (a whole-shard writer adds ~2.6 shards).
                ("test_shard_write_memory", "large_entries", ">", Field("small_entries")),
                ("test_shard_write_memory", "growth_delta_mb", "<=", SHARD_MEMORY_MARGIN_MB)),
        verify=("--tier", "scale"), min_cases=4),
    "wings": Family(
        # Rem. 1 from the record: the peeled maximum never exceeds the
        # closed-form bound, and certified zeros had real edges to bite on.
        checks=(("test_peel_vs_oracle_bounds", "max_wing", "<=", Field("max_wing_bound")),
                ("test_peel_vs_oracle_bounds", "certified_zero_edges", ">", 0),
                ("test_wing_bound_query_throughput", "queries_per_s", ">", 0),
                ("test_chain_wing_stream", "entries_per_s", ">", 0)),
        verify=("--tier", "wings"), min_cases=8, drill="wing-support"),
    "shards": Family(bench=False, extras=(shard_drills,)),
}


def run_family(name: str) -> None:
    fam = FAMILIES[name]
    out = ROOT / "smoke-out" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if fam.bench:
        record = ROOT / f"BENCH_{name}.json"
        committed = record.read_bytes()
        baseline, fresh = out / f"baseline_BENCH_{name}.json", out / f"BENCH_{name}.json"
        baseline.write_bytes(committed)
        try:
            py("-m", "pytest", f"benchmarks/bench_{name}.py", "-q", env={"REPRO_BENCH_QUICK": "1"})
            shutil.move(record, fresh)
            py("-m", "repro.obs", str(fresh))
            failures = field_failures(fam.checks, json.loads(fresh.read_text()))
            need(not failures, f"BENCH_{name}.json field checks: {failures}")
            py("benchmarks/compare.py", str(baseline), str(fresh), "--max-regression", MAX_REGRESSION)
        finally:
            record.write_bytes(committed)
    for extra in fam.extras:
        extra(out)
    tier = fam.verify[fam.verify.index("--tier") + 1] if "--tier" in fam.verify else "standard"
    if fam.verify:
        report = out / f"verify_{tier}.json"
        py("-m", "repro", "verify", *fam.verify, "--report-out", str(report))
        check_report(report, tier=tier, min_cases=fam.min_cases, perturbation=None)
    if fam.drill:
        report = out / f"verify_{fam.drill}.json"
        py("-m", "repro", "verify", *fam.verify, "--perturb", fam.drill,
           "--report-out", str(report), expect=DIVERGENCE_EXIT)
        check_report(report, tier=tier, min_cases=0, perturbation=fam.drill)


def main(argv: Optional[list[str]] = None) -> int:
    names = sys.argv[1:] if argv is None else argv
    if set(names) - set(FAMILIES):
        print(__doc__, "\nfamilies:", " ".join(FAMILIES))
        return 2
    sys.stdout.reconfigure(line_buffering=True)  # keep order with subprocess output
    results = {}
    for name in names or list(FAMILIES):
        print(f"=== smoke: {name}")
        start = time.perf_counter()
        try:
            run_family(name)
            results[name] = "ok"
        except Exception as exc:  # report every family, then fail the run
            if not isinstance(exc, SmokeFailure):
                traceback.print_exc()
            results[name] = f"FAILED: {exc}"
        print(f"=== smoke: {name} {results[name]} ({time.perf_counter() - start:.1f} s)")
    print("\n".join(f"{name:<12}{result}" for name, result in results.items()))
    return 0 if all(r == "ok" for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
