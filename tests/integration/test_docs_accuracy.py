"""Docs-don't-rot tests: code shown in the README must actually run,
the paper mapping must name code and files that exist, and the
documented erratum formulas must stay pinned."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestReadmeCode:
    def test_quickstart_block_executes(self):
        """Extract the first python code block from README.md and run it."""
        text = (REPO_ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
        assert blocks, "README lost its quickstart block"
        namespace: dict = {}
        exec(blocks[0], namespace)  # noqa: S102 - deliberate docs check
        # The block builds a product and an oracle; sanity-check them.
        assert "oracle" in namespace
        assert namespace["oracle"].global_squares() >= 0
        assert "C" in namespace

    def test_readme_mentions_shipped_entry_points(self):
        text = (REPO_ROOT / "README.md").read_text()
        for token in (
            "make_bipartite_product",
            "GroundTruthOracle",
            "stream_edges",
            "python -m repro",
            "DESIGN.md",
            "EXPERIMENTS.md",
        ):
            assert token in text, f"README no longer mentions {token}"

    def test_design_doc_lists_all_errata(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for erratum in ("Thm 4 sign typo", "Cor. 1 constant", "Table I edge count",
                        "Thm. 5 expanded point-wise"):
            assert erratum in text, f"DESIGN.md erratum section lost: {erratum}"


SUBPACKAGES = "analytics|experiments|generators|graphs|kronecker|obs|parallel|refcheck|serve|utils"


def _resolve_dotted(name: str):
    """Import the longest module prefix of ``name``, then getattr the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


class TestPaperMappingReferences:
    """Every code name and file path the traceability matrix cites resolves."""

    TICKED = re.findall(r"`([^`]+)`", (REPO_ROOT / "docs" / "paper_mapping.md").read_text())

    def test_dotted_names_import(self):
        pattern = re.compile(rf"(repro|{SUBPACKAGES})(\.\w+)*")
        names = [t for t in self.TICKED if pattern.fullmatch(t)]
        assert len(names) > 30
        broken = []
        for name in names:
            try:
                _resolve_dotted(name if name.startswith("repro") else f"repro.{name}")
            except (ImportError, AttributeError):
                broken.append(name)
        assert not broken, f"docs/paper_mapping.md cites names that do not resolve: {broken}"

    def test_paths_exist(self):
        refs = [t for t in self.TICKED if re.match(r"(tests|benchmarks|examples|docs)/", t)]
        assert len(refs) > 20
        broken = []
        for ref in refs:
            path, _, node = ref.partition("::")
            files = sorted(REPO_ROOT.glob(path))
            test = node.split("::")[0].rstrip("*").rstrip("_")
            if not files or (
                test and not re.search(rf"(def|class) {test}", files[0].read_text())
            ):
                broken.append(ref)
        assert not broken, f"docs/paper_mapping.md cites missing files or tests: {broken}"


class TestApiTables:
    """Every first-column name of a ``## `repro.X` `` table in
    docs/api.md is an attribute of ``repro.X`` (dotted names walk
    submodules and attributes, as in the paper mapping)."""

    def _first_column_names(self) -> list[tuple[str, str]]:
        text = (REPO_ROOT / "docs" / "api.md").read_text()
        names = []
        for section in re.split(r"^## ", text, flags=re.MULTILINE)[1:]:
            heading = re.match(r"`(repro(?:\.\w+)*)`", section)
            if not heading:
                continue
            for line in section.splitlines():
                if not line.startswith("|") or re.match(r"\|\s*(symbol|-+)\s*\|", line):
                    continue
                first = line.split("|")[1]
                for ticked in re.findall(r"`([^`]+)`", first):
                    names.append((heading.group(1), re.match(r"[\w.]+", ticked).group(0)))
        return names

    def test_first_column_names_resolve(self):
        names = self._first_column_names()
        assert len(names) > 30
        broken = []
        for module, name in names:
            try:
                _resolve_dotted(f"{module}.{name}")
            except (ImportError, AttributeError):
                broken.append(f"{module}: {name}")
        assert not broken, f"docs/api.md tables list names that do not resolve: {broken}"


def _source_names() -> tuple[set[str], tuple[str, ...]]:
    """Every string literal under ``src/repro``, and every f-string's
    literal head that ends in a dot (``f"cli.{command}"`` gives ``cli.``)."""
    import ast

    literals: set[str] = set()
    heads: set[str] = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
            elif isinstance(node, ast.JoinedStr) and node.values:
                head = node.values[0]
                if isinstance(head, ast.Constant) and head.value.endswith("."):
                    heads.add(head.value)
    return literals, tuple(heads)


class TestTelemetryNames:
    """Every metric in docs/observability.md's metric table and every
    span in its span table is a name the code can emit."""

    def _table_names(self, header: str) -> list[str]:
        text = (REPO_ROOT / "docs" / "observability.md").read_text()
        table = text.split(f"| {header} |", 1)[1].split("\n\n", 1)[0]
        names = []
        for line in table.splitlines()[2:]:
            first = re.split(r"(?<!\\)\|", line)[1]
            for ticked in re.findall(r"`([^`]+)`", first):
                ticked = re.sub(r"\{[^}]*=[^}]*\}", "", ticked)  # label sets
                brace = re.fullmatch(r"(.*)\{([\w,]+)\}(.*)", ticked)
                expanded = (
                    [brace[1] + alt + brace[3] for alt in brace[2].split(",")]
                    if brace else [ticked]
                )
                # ``<area>.x`` placeholders stay in, so they fail the lookup.
                names += [n for n in expanded if re.fullmatch(r"[a-z_<][\w.<>]*", n)]
        return names

    @pytest.mark.parametrize("header", ["metric", "span"])
    def test_documented_names_occur_in_source(self, header):
        names = self._table_names(header)
        assert len(names) > 10
        literals, heads = _source_names()
        missing = [n for n in names if n not in literals and not n.startswith(heads)]
        assert not missing, f"docs/observability.md {header} table names no source string: {missing}"


class TestRemark1DisplayedFormula:
    def test_paper_square_free_specialization(self):
        """Rem. 1 displays s_C for square-free factors:

            s_C = ½[ (d_A²+w_A²−d_A) ⊗ (d_B²+w_B²−d_B)
                     − d_A²⊗d_B² − w_A²⊗w_B² + d_A⊗d_B ]

        -- Thm. 3 with s_A = s_B = 0; must match direct counting."""
        from repro.analytics import vertex_squares_matrix
        from repro.generators import cycle_graph, path_graph

        from tests.shard_referee import kron_graph

        A, B = cycle_graph(5), path_graph(4)  # both square-free
        d_a = A.degrees().astype(np.int64)
        d_b = B.degrees().astype(np.int64)
        w2_a = np.asarray(A.adj @ d_a).ravel()
        w2_b = np.asarray(B.adj @ d_b).ravel()
        paper = (
            np.kron(d_a**2 + w2_a - d_a, d_b**2 + w2_b - d_b)
            - np.kron(d_a**2, d_b**2)
            - np.kron(w2_a, w2_b)
            + np.kron(d_a, d_b)
        ) // 2
        direct = vertex_squares_matrix(kron_graph([A, B]))
        assert np.array_equal(paper, direct)


class TestHarnessEdgeCases:
    def test_fig5_binned_empty_series(self):
        from repro.experiments.figures import Fig5Series

        series = Fig5Series("empty", np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64))
        mids, meds = series.binned()
        assert mids.size == 0

    def test_cost_row_infinite_speedup_guard(self):
        from repro.experiments.scaling import CostRow

        row = CostRow(n_product=1, m_product=1, squares=0, t_ground_truth=0.0, t_direct=1.0)
        assert row.speedup == float("inf")


class TestRecordedNumbers:
    def test_generation_paragraph_matches_bench_record(self):
        """EXPERIMENTS.md's generation numbers are quoted from
        BENCH_generation.json, rounded as printed."""
        import json

        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        section = text.split("## Generation (§V)", 1)[1].split("\n## ", 1)[0]
        match = re.search(
            r"all ([\d,]+) directed entries.*?([\d.]+) ms \(≈(\d+)M entries/s\) "
            r"vs ([\d.]+) s for scipy",
            section,
            flags=re.DOTALL,
        )
        assert match, "EXPERIMENTS.md generation paragraph lost its numbers"
        entries, stream_ms, rate_m, materialize_s = match.groups()
        record = json.loads((REPO_ROOT / "BENCH_generation.json").read_text())
        row = {r["bench"]: r for r in record["benches"]}["test_generation_throughput"]
        assert int(entries.replace(",", "")) == row["directed_entries"]
        assert float(stream_ms) == round(row["stream_seconds"] * 1e3, 1)
        assert float(materialize_s) == round(row["materialize_seconds"], 1)
        assert int(rate_m) == round(row["directed_entries"] / row["stream_seconds"] / 1e6)

    def test_plan_numbers_match_bench_record(self):
        """docs/performance.md's and EXPERIMENTS.md's degree-plan timings
        are quoted from BENCH_generation.json, rounded as printed."""
        import json

        record = json.loads((REPO_ROOT / "BENCH_generation.json").read_text())
        row = {r["bench"]: r for r in record["benches"]}["test_plan_partition"]
        plan, bisect = f"{row['plan_seconds'] * 1e6:.0f} µs", f"{row['bisect_seconds'] * 1e6:.0f} µs"
        assert row["plan_matches_referee"] == 1
        for doc in ("docs/performance.md", "EXPERIMENTS.md"):
            flat = " ".join((REPO_ROOT / doc).read_text().split())
            assert f"{plan} against {bisect}" in flat, doc

    def test_direct_counter_table_matches_bench_record(self):
        """docs/performance.md item 3's direct-counter table and its
        K₇₁,₇₁ sentence are quoted from BENCH_generation.json's
        ``test_walk_tables`` row, rounded as printed."""
        import json

        record = json.loads((REPO_ROOT / "BENCH_generation.json").read_text())
        row = {r["bench"]: r for r in record["benches"]}["test_walk_tables"]
        assert row["counter_matches_referee"] == 1

        def printed(seconds):
            ms = seconds * 1e3
            if ms >= 1000:
                return f"{seconds:.2f} s"
            return f"{ms:.0f} ms" if ms >= 100 else f"{ms:.1f} ms"

        text = (REPO_ROOT / "docs" / "performance.md").read_text()
        item = text.split("3. **One direct 4-cycle counter", 1)[1].split("\n4. **", 1)[0]
        for name, label in (
            ("unicode", "unicode stand-in (868 vertices)"),
            ("pa", "preferential attachment (20,000, 3)"),
            ("biclique", "`K₇₁,₇₁`"),
        ):
            f = row["factors"][name]
            cells = [label, f"{f['wedges']:,}", printed(f["counter_seconds"]),
                     printed(f["referee_seconds"]), printed(f["global_seconds"]),
                     printed(f["a2_global_seconds"])]
            assert "| " + " | ".join(cells) + " |" in item, name
        k71 = row["factors"]["biclique"]
        flat = " ".join(item.split())
        assert (
            f"`K₇₁,₇₁` costs {printed(k71['counter_seconds'])} against "
            f"{printed(k71['referee_seconds'])}" in flat
        )

    def test_serving_capacity_numbers_match_bench_record(self):
        """docs/serving.md's capacity table and docs/performance.md's
        serving paragraph are quoted from BENCH_serve.json, rounded as
        printed."""
        import json

        record = json.loads((REPO_ROOT / "BENCH_serve.json").read_text())
        row = {r["bench"]: r for r in record["benches"]}
        inproc = row["test_serve_throughput_vs_concurrency"]
        cache = row["test_serve_cache_on_vs_off"]
        naive = row["test_serve_http_round_trip"]
        keepalive = row["test_serve_prefork_http_keepalive"]
        wire = row["test_serve_prefork_wire_pipeline"]
        art = row["test_artifact_load_vs_rebuild"]
        expected = {
            "in-process service, 16 clients × 64-query requests (`answer()` on each client's thread)":
                f"~{inproc['queries_per_s'] / 1e6:.2f}M queries/s, "
                f"p50 {inproc['p50_ms']:.2f} ms, p99 {inproc['p99_ms']:.2f} ms",
            "LRU on hot traffic (8 shapes replayed)":
                f"{cache['cache_hit_rate']:.0%} hits, ~{cache['cache_speedup']:.1f}× vs cache-off",
            "1-worker HTTP, naive clients (connection per request)":
                f"~{naive['http_requests_per_s']:.0f} req/s",
            "pre-fork JSON over keep-alive connections":
                f"~{keepalive['requests_per_s'] / 1e3:.1f}k req/s",
            "pre-fork wire protocol, pipelined":
                f"**~{wire['requests_per_s'] / 1e3:.1f}k req/s** "
                f"(~{wire['queries_per_s'] / 1e6:.2f}M queries/s) — "
                f"**{wire['speedup_vs_seed_http']:.0f}×** the seed HTTP row",
            f"artifact load (checksum-verified, {art['artifact_bytes'] / 1024:.0f} KiB) vs stats rebuild":
                f"{art['load_seconds'] * 1e3:.1f} ms vs {art['rebuild_seconds'] * 1e3:.1f} ms",
        }
        text = (REPO_ROOT / "docs" / "serving.md").read_text()
        section = text.split("## Capacity numbers", 1)[1].split("\n## ", 1)[0]
        printed = dict(re.findall(r"^\| (.+?) \| (.+?) \|$", section, flags=re.MULTILINE))
        del printed["measurement"]
        assert printed == expected

        text = (REPO_ROOT / "docs" / "performance.md").read_text()
        section = text.split("**Serving:**", 1)[1].split("\n\n", 1)[0]
        quoted = [
            f"~{inproc['queries_per_s'] / 1e6:.2f}M queries/s at 16 clients",
            f"~{naive['http_requests_per_s']:.0f} req/s",
            f"~{keepalive['requests_per_s'] / 1e3:.1f}k req/s",
            f"~{wire['requests_per_s'] / 1e3:.1f}k req/s",
        ]
        flat = " ".join(section.split())
        for number in quoted:
            assert number in flat, number
