"""``run.py compare A/ B/``: apply BENCHMARK.json to two sets of results.

``A`` (the parent) and ``B`` (the change) are directories holding
``results.json`` files written by ``run.py --seed N --out DIR``, searched
recursively.  For every workload and end-to-end metric the report gives
each side's median and quartiles and one verdict:

``regression``  B's median is worse than A's by more than the bound,
                however wide the spread.
``unresolved``  either side's spread (interquartile range over median) is
                wider than the bound, and not every run of B beats every
                run of A (that case reads ``better``).
``gain``        at least 10 pairs, B wins at least 9 in 10 of them, the
                medians differ by more than A's interquartile range, and
                the pairs alternated which side ran first.
``ok``          none of the above.

The timings in :data:`UNGATED` get ``gain`` or ``ungated``: a change is
never refused on them.

Runs pair up in start-time order: the i-th run of A with the i-th of B.
Each workload also compares the share of failed operations; a change
that fails a larger share than its parent is refused, and so is a
metric missing from one side.  The exit code is 1 on any of these.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Optional

MIN_PAIRS = 10
WIN_SHARE = 0.9

#: Timings every untraced run measures, reports and writes to its result
#: files, but which BENCHMARK.json does not gate: on a small shared host
#: they cannot hold the 0.10 bound a gated timing must hold (README.md).
#: The gain rule needs no bound, so ``compare`` still applies it to them.
UNGATED = (
    {"name": "values_per_s", "unit": "1/s", "better": "higher"},
    {"name": "p50_ms", "unit": "ms", "better": "lower"},
)


def load_runs(directory: Path) -> list[dict]:
    runs = [json.loads(p.read_text(encoding="utf-8")) for p in directory.rglob("results.json")]
    return sorted(runs, key=lambda run: run["started_at"])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    a: list[float], b: list[float], lower: bool, bound: Optional[float], alternating: bool
) -> str:
    """One metric's verdict from paired runs ``a[i]``, ``b[i]``; ``bound``
    is None for an ungated timing."""
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    worse = (mb - ma) / ma if lower else (ma - mb) / ma
    spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
    beats = (lambda x, y: y < x) if lower else (lambda x, y: y > x)
    wins = sum(beats(x, y) for x, y in zip(a, b))
    pairs = min(len(a), len(b))
    if (
        alternating
        and pairs >= MIN_PAIRS
        and wins >= WIN_SHARE * pairs
        and beats(ma, mb)
        and abs(mb - ma) > qa3 - qa1
    ):
        return "gain"
    if bound is None:
        return "ungated"
    if worse > bound:
        return "regression"
    if spread > bound:
        return "better" if all(beats(x, y) for x in a for y in b) else "unresolved"
    return "ok"


def failed_share(runs: list[dict], workload: str) -> float:
    attempted = sum(run["workloads"][workload]["attempted"] for run in runs)
    return sum(run["workloads"][workload]["failed"] for run in runs) / max(1, attempted)


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether the change is refused."""
    pairs = list(zip(a_runs, b_runs))
    firsts = [a["started_at"] < b["started_at"] for a, b in pairs]
    alternating = all(x != y for x, y in zip(firsts, firsts[1:]))
    lines = [
        f"{len(a_runs)} parent runs, {len(b_runs)} change runs, {len(pairs)} pairs"
        f" ({'alternating' if alternating else 'not alternating'})",
        f"{'workload':<11} {'metric':<13} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'change':>8}  verdict",
    ]
    refused = False
    workloads = sorted({w for run in a_runs + b_runs for w in run["workloads"]})
    for workload in workloads:
        a_side = [run for run in a_runs if workload in run["workloads"]]
        b_side = [run for run in b_runs if workload in run["workloads"]]
        if not a_side or not b_side:
            lines.append(f"{workload:<11} missing from {'parent' if not a_side else 'change'} runs")
            refused = True
            continue
        metrics = [("metrics", m) for m in spec["end_to_end"]] + [("ungated", m) for m in UNGATED]
        for section, metric in metrics:
            name = metric["name"]
            bound = metric.get("bound")
            a = [r["workloads"][workload].get(section, {}).get(name, {}).get("value") for r in a_side]
            b = [r["workloads"][workload].get(section, {}).get(name, {}).get("value") for r in b_side]
            if None in a or None in b:
                lines.append(f"{workload:<11} {name:<13} missing")
                refused |= bound is not None
                continue
            lower = metric["better"] == "lower"
            result = verdict(a, b, lower, bound, alternating)
            refused |= result == "regression"
            qa1, ma, qa3 = quartiles(a)
            qb1, mb, qb3 = quartiles(b)
            unit = metric["unit"]
            parent = f"{ma:.5g} [{qa1:.5g}, {qa3:.5g}] {unit}"
            change = f"{mb:.5g} [{qb1:.5g}, {qb3:.5g}] {unit}"
            lines.append(
                f"{workload:<11} {name:<13} {parent:<34} {change:<34} "
                f"{(mb - ma) / ma:>+8.1%}  {result}"
                + (f" (bound {bound:.0%})" if bound is not None else "")
            )
        fa, fb = failed_share(a_side, workload), failed_share(b_side, workload)
        more = fb > fa
        refused |= more
        lines.append(
            f"{workload:<11} {'failed share':<13} parent {fa:.3%}, change {fb:.3%}"
            f"{'  MORE FAILURES' if more else ''}"
        )
    return lines, refused


def main(argv: list[str], spec: dict) -> int:
    if len(argv) != 2:
        print("usage: run.py compare PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    a_runs, b_runs = (load_runs(Path(d)) for d in argv)
    if not a_runs or not b_runs:
        print("error: each directory needs at least one results.json", file=sys.stderr)
        return 2
    lines, refused = compare(a_runs, b_runs, spec)
    print("\n".join(lines))
    return 1 if refused else 0
