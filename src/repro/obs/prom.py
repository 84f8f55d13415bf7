"""Prometheus text exposition (scrape format 0.0.4) for metric snapshots.

:func:`render_prometheus` turns a :meth:`MetricsRegistry.snapshot()
<repro.obs.metrics.MetricsRegistry.snapshot>` dict into the plain-text
exposition format Prometheus scrapes — the payload behind
``GET /metrics?format=prometheus`` on ``repro serve``:

* counters and gauges render as one sample per labeled series
  (``repro_serve_http_responses_total{endpoint="v1_degree",status="200"} 7``);
* histograms render as standard Prometheus histograms (cumulative
  ``_bucket{le="..."}`` series over the shared
  :data:`~repro.obs.metrics.HISTOGRAM_BUCKET_BOUNDS`, plus ``_sum`` /
  ``_count``) **and** a companion ``<name>_quantile`` gauge family
  carrying the bucket-estimated p50/p90/p99, so a bare ``curl`` shows
  latency quantiles without a PromQL evaluator.

Metric names are sanitized to the Prometheus grammar (dots become
underscores, an optional ``repro_`` namespace prefix is applied);
label keys/values survive verbatim modulo escaping.

:func:`lint_exposition` is the executable half of the format contract:
it parses an exposition document and returns a list of problems (empty
means scrapeable).  CI's ``serve-smoke`` job runs it over the live
``/metrics?format=prometheus`` output via
``python -m repro.obs --prom FILE``.
"""

from __future__ import annotations

import re
from typing import Any, Optional

from repro.obs.metrics import HISTOGRAM_BUCKET_BOUNDS, parse_series_key

__all__ = ["render_prometheus", "lint_exposition"]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_KEY_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\",?)*)\})?"
    r"\s+(?P<value>[^\s]+)(?:\s+(?P<timestamp>-?\d+))?$"
)

_QUANTILES = (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))


def _sanitize(name: str) -> str:
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not out or not re.match(r"[a-zA-Z_:]", out[0]):
        out = "_" + out
    return out


def _fmt_labels(labels: dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_sanitize(str(k))}="{_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(
    snapshot: dict[str, Any],
    *,
    namespace: str = "repro",
    extra_gauges: Optional[dict[str, Any]] = None,
    const_labels: Optional[dict[str, str]] = None,
) -> str:
    """Render one metrics snapshot as Prometheus text exposition.

    ``extra_gauges`` maps metric names (dotted, pre-sanitization) to
    numeric values — the serving layer passes its service tallies
    (queue depth, cache entries, ...) through it so one scrape sees
    both worlds.

    ``const_labels`` are stamped onto **every** sample (series labels
    win on key collision).  The serving layer passes
    ``{"worker": <id>}`` so scrapes of different pre-fork workers stay
    distinct series instead of colliding when aggregated.
    """
    prefix = f"{namespace}_" if namespace else ""
    const = dict(const_labels or {})
    lines: list[str] = []
    families: set[str] = set()

    def family(name: str, kind: str) -> str:
        pname = _sanitize(prefix + name)
        if pname not in families:
            families.add(pname)
            lines.append(f"# TYPE {pname} {kind}")
        return pname

    by_family: dict[str, list[tuple[dict[str, str], Any]]] = {}
    for key, value in snapshot.get("counters", {}).items():
        name, labels = parse_series_key(key)
        by_family.setdefault(name, []).append(({**const, **labels}, value))
    for name in sorted(by_family):
        pname = family(name, "counter")
        for labels, value in by_family[name]:
            lines.append(f"{pname}{_fmt_labels(labels)} {_fmt_value(value)}")

    by_family = {}
    for key, value in snapshot.get("gauges", {}).items():
        if value is None:
            continue
        name, labels = parse_series_key(key)
        by_family.setdefault(name, []).append(({**const, **labels}, value))
    for name, value in sorted((extra_gauges or {}).items()):
        if value is not None and isinstance(value, (int, float)):
            by_family.setdefault(name, []).append((dict(const), value))
    for name in sorted(by_family):
        pname = family(name, "gauge")
        for labels, value in by_family[name]:
            lines.append(f"{pname}{_fmt_labels(labels)} {_fmt_value(value)}")

    hist_by_family: dict[str, list[tuple[dict[str, str], dict[str, Any]]]] = {}
    for key, summary in snapshot.get("histograms", {}).items():
        name, labels = parse_series_key(key)
        hist_by_family.setdefault(name, []).append(({**const, **labels}, summary))
    for name in sorted(hist_by_family):
        pname = family(name, "histogram")
        qname = family(name + "_quantile", "gauge")
        for labels, s in hist_by_family[name]:
            cumulative = 0
            buckets = {int(i): int(n) for i, n in (s.get("buckets") or {}).items()}
            for idx in sorted(buckets):
                cumulative += buckets[idx]
                le = (
                    repr(HISTOGRAM_BUCKET_BOUNDS[idx])
                    if idx < len(HISTOGRAM_BUCKET_BOUNDS)
                    else "+Inf"
                )
                blabels = {**labels, "le": le}
                lines.append(f"{pname}_bucket{_fmt_labels(blabels)} {cumulative}")
            inf_labels = {**labels, "le": "+Inf"}
            if not buckets or max(buckets) < len(HISTOGRAM_BUCKET_BOUNDS):
                lines.append(f"{pname}_bucket{_fmt_labels(inf_labels)} {int(s.get('count', 0))}")
            lines.append(f"{pname}_sum{_fmt_labels(labels)} {_fmt_value(s.get('sum', 0.0))}")
            lines.append(f"{pname}_count{_fmt_labels(labels)} {int(s.get('count', 0))}")
            for q, pkey in _QUANTILES:
                if pkey in s:
                    qlabels = {**labels, "quantile": q}
                    lines.append(f"{qname}{_fmt_labels(qlabels)} {_fmt_value(s[pkey])}")
    return "\n".join(lines) + "\n"


def lint_exposition(text: str) -> list[str]:
    """Validate scrape-format text; returns problems (empty == valid).

    Checks each line against the 0.0.4 grammar: comments/``# TYPE``
    declarations, and ``name{labels} value [timestamp]`` samples whose
    value parses as a float and whose family (name modulo the
    ``_bucket``/``_sum``/``_count`` histogram suffixes) was declared by
    a preceding ``# TYPE`` line.
    """
    problems: list[str] = []
    declared: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    problems.append(f"line {lineno}: malformed TYPE declaration: {line!r}")
                    continue
                _, _, fname, kind = parts
                if not _NAME_OK.match(fname):
                    problems.append(f"line {lineno}: invalid family name {fname!r}")
                if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    problems.append(f"line {lineno}: unknown family type {kind!r}")
                if fname in declared:
                    problems.append(f"line {lineno}: duplicate TYPE for {fname!r}")
                declared[fname] = kind
            # HELP and free comments are always fine.
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            problems.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        name = m.group("name")
        value = m.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                problems.append(f"line {lineno}: non-numeric sample value {value!r}")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in declared:
                base = name[: -len(suffix)]
                break
        if base not in declared:
            problems.append(f"line {lineno}: sample {name!r} has no TYPE declaration")
        raw = m.group("labels")
        if raw:
            for pair in filter(None, _split_label_pairs(raw)):
                key = pair.split("=", 1)[0]
                if not _LABEL_KEY_OK.match(key):
                    problems.append(f"line {lineno}: invalid label key {key!r}")
    return problems


def _split_label_pairs(raw: str) -> list[str]:
    """Split ``k="v",k2="v2"`` respecting escaped quotes inside values."""
    pairs: list[str] = []
    depth_quote = False
    current = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\" and depth_quote and i + 1 < len(raw):
            current.append(raw[i : i + 2])
            i += 2
            continue
        if ch == '"':
            depth_quote = not depth_quote
        if ch == "," and not depth_quote:
            pairs.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    if current:
        pairs.append("".join(current))
    return pairs


def _lint_main(argv: list[str]) -> int:  # pragma: no cover - exercised via CI
    rc = 0
    for path in argv:
        with open(path, "r", encoding="utf-8") as fh:
            problems = lint_exposition(fh.read())
        if problems:
            rc = 1
            print(f"{path}: {len(problems)} problem(s)")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(f"{path}: ok")
    return rc


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(_lint_main(sys.argv[1:]))
