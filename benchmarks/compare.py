"""Benchmark comparison between two ``BENCH_*.json`` records — warn or GATE.

The smoke driver (``benchmarks/smoke.py``) runs each quick-mode
benchmark, then::

    PYTHONPATH=src python benchmarks/compare.py baseline.json current.json \
        --max-regression 0.25

Rows are matched by bench name; every shared ``*_per_s`` (and
``seconds``) field is compared and a delta table printed.  Two modes:

* **Warn-only** (no ``--max-regression``): regressions beyond
  ``--warn-threshold`` (default 20%) are flagged ``WARN`` but the exit
  code is always 0 — a trend signal for humans reading the log.
* **Gate** (``--max-regression X``): a uniform per-metric tolerance.
  Any enforced row regressing more than ``X`` (relative), or any bench
  missing from the current record, makes the process exit **1** — the
  perf-regression gate the smoke driver enforces on every committed
  ``BENCH_*.json`` record.

Enforcement is mode-aware: a row is *enforced* only when baseline and
current agree on the ``quick`` flag.  Committed baselines come from
full-mode local runs while CI measures quick mode on noisy shared
runners — those cross-mode rows are structurally incomparable, so they
stay advisory (printed with ``~``) even under ``--max-regression``.
The driver's gate drill proves the gate bites: it clones the current record,
inflates one throughput field in the clone, and asserts that comparing
current-vs-clone (same mode on both sides) exits non-zero.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.obs import load_run_record


def _rows_by_bench(record: dict[str, Any]) -> dict[str, dict[str, Any]]:
    return {row["bench"]: row for row in record.get("benches", [])}


def _comparable_fields(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    shared = set(a) & set(b)
    return sorted(
        f for f in shared if f.endswith("_per_s") or f == "seconds"
        if isinstance(a[f], (int, float)) and isinstance(b[f], (int, float))
    )


def compare(
    baseline: dict[str, Any],
    current: dict[str, Any],
    warn_threshold: float,
    max_regression: float | None = None,
) -> tuple[list[str], list[str]]:
    """Return ``(report_lines, gate_failures)`` (also used by tests).

    ``gate_failures`` is non-empty only in gate mode (``max_regression``
    set) and only for enforced rows — same ``quick`` flag on both sides
    — or benches missing from ``current``.
    """
    base_rows = _rows_by_bench(baseline)
    curr_rows = _rows_by_bench(current)
    gating = max_regression is not None
    threshold = max_regression if gating else warn_threshold
    lines = [
        f"benchmark comparison: {baseline.get('name', '?')} "
        f"(baseline, quick={any(r.get('quick') for r in base_rows.values())}) vs "
        f"current (quick={any(r.get('quick') for r in curr_rows.values())})"
        + (f"  [GATE: max regression {threshold:.0%}]" if gating else ""),
        f"{'bench':<42}{'field':<22}{'baseline':>14}{'current':>14}{'delta':>10}",
    ]
    failures: list[str] = []
    for bench in sorted(set(base_rows) | set(curr_rows)):
        if bench not in base_rows:
            lines.append(f"{bench:<42}{'(new bench, no baseline)':<22}")
            continue
        if bench not in curr_rows:
            flag = "  FAIL" if gating else "  WARN"
            lines.append(f"{bench:<42}{'(missing from current)':<22}{flag}")
            if gating:
                failures.append(f"{bench}: missing from current record")
            continue
        a, b = base_rows[bench], curr_rows[bench]
        enforced = a.get("quick") == b.get("quick")
        for field in _comparable_fields(a, b):
            base_v, curr_v = float(a[field]), float(b[field])
            if base_v == 0.0:
                delta_s, flag = "n/a", ""
            else:
                delta = (curr_v - base_v) / base_v
                # higher is better for *_per_s; lower is better for seconds
                regressing = delta < -threshold if field != "seconds" else delta > threshold
                delta_s = f"{delta:+.1%}"
                if not regressing:
                    flag = ""
                elif gating and enforced:
                    flag = "  FAIL"
                    failures.append(
                        f"{bench}.{field}: {base_v:.3g} -> {curr_v:.3g} ({delta:+.1%}, "
                        f"tolerance {threshold:.0%})"
                    )
                elif gating:
                    flag = "  ~ (mode mismatch: advisory)"
                else:
                    flag = "  WARN"
            lines.append(
                f"{bench:<42}{field:<22}{base_v:>14.3g}{curr_v:>14.3g}{delta_s:>10}{flag}"
            )
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_*.json baseline")
    parser.add_argument("current", help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--warn-threshold",
        type=float,
        default=0.20,
        help="relative regression beyond which a row is flagged WARN (default 0.20)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=None,
        metavar="X",
        help="enforce: exit 1 if any same-mode row regresses more than X "
        "(e.g. 0.25), or a bench disappears; cross-mode rows stay advisory",
    )
    args = parser.parse_args(argv)
    baseline = load_run_record(args.baseline)
    current = load_run_record(args.current)
    lines, failures = compare(
        baseline, current, args.warn_threshold, max_regression=args.max_regression
    )
    for line in lines:
        print(line)
    if args.max_regression is None:
        print("(warn-only: exit 0 regardless)")
        return 0
    if failures:
        print(f"perf gate FAILED ({len(failures)} regression(s) beyond tolerance):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"perf gate ok: no enforced regression beyond {args.max_regression:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
