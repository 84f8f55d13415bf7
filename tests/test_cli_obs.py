"""CLI observability: --profile / --metrics-out and clean error paths."""

import pytest

from repro.cli import main
from repro.obs import load_run_record


def _span_names(spans):
    for span in spans:
        yield span["name"]
        yield from _span_names(span.get("children", []))


class TestMetricsOut:
    def test_generate_writes_valid_run_record(self, tmp_path):
        out = tmp_path / "edges.txt"
        record_path = tmp_path / "run.json"
        rc = main(
            ["generate", "complete:3", "path:4", "-o", str(out), "--metrics-out", str(record_path)]
        )
        assert rc == 0
        record = load_run_record(record_path)  # validates the schema
        names = list(_span_names(record["spans"]))
        assert len(names) >= 3
        assert {"cli.generate", "generate.build_product", "generate.write_edges"} <= set(names)

        counters = record["metrics"]["counters"]
        assert len(counters) >= 3
        # 36 directed entries: nnz(K3) * nnz(P4) = 6 * 6.
        assert counters["edges_streamed_total"] == 36
        written = sum(1 for line in out.read_text().splitlines() if not line.startswith("#"))
        assert counters["generate.edges_written_total"] == written == 18

        assert record["config"]["factors"] == ["complete:3", "path:4"]
        assert record["exit_code"] == 0

    def test_generate_ground_truth_records_one_block(self, tmp_path):
        record_path = tmp_path / "run.json"
        rc = main(
            ["generate", "cycle:3", "path:3", "--ground-truth",
             "-o", str(tmp_path / "e.txt"), "--metrics-out", str(record_path)]
        )
        assert rc == 0
        record = load_run_record(record_path)
        write = [s for s in record["spans"][0]["children"] if s["name"] == "generate.write_edges"]
        assert write and write[0]["attrs"]["ground_truth"] is True
        # 24 directed entries (nnz(C3) * nnz(P3) = 6 * 4) fit one block
        # of three int64 columns.
        metrics = record["metrics"]
        assert metrics["counters"]["edges_streamed_total"] == 24
        assert metrics["counters"]["stream.blocks_total"] == 1
        assert metrics["histograms"]["stream.block_size_bytes"]["sum"] == 24 * 3 * 8

    def test_stats_writes_record_with_gauges(self, tmp_path):
        record_path = tmp_path / "run.json"
        rc = main(["stats", "cycle:5", "path:4", "--metrics-out", str(record_path)])
        assert rc == 0
        record = load_run_record(record_path)
        gauges = record["metrics"]["gauges"]
        assert gauges["stats.product_vertices"] == 20
        assert gauges["stats.global_squares"] >= 0
        assert "stats.global_squares" in set(_span_names(record["spans"]))

    def test_record_written_even_on_failure(self, tmp_path):
        record_path = tmp_path / "run.json"
        rc = main(
            # K4 x C5: C5 is non-bipartite, so the build fails cleanly.
            ["stats", "complete:4", "cycle:5", "--metrics-out", str(record_path)]
        )
        assert rc == 2
        record = load_run_record(record_path)
        assert record["exit_code"] == 2
        (root,) = record["spans"]
        assert root["status"] == "error"


class TestStragglerInstrumentation:
    """Every product-building subcommand routes through the shared
    instrumented path — pack and the report/figure stragglers included."""

    def test_pack_writes_valid_run_record(self, tmp_path):
        record_path = tmp_path / "run.json"
        rc = main(
            ["pack", "complete:3", "biclique:2x3", "-o", str(tmp_path / "art"),
             "--metrics-out", str(record_path)]
        )
        assert rc == 0
        record = load_run_record(record_path)
        names = set(_span_names(record["spans"]))
        assert {"cli.pack", "pack.build_product", "pack.build_oracle"} <= names
        assert record["exit_code"] == 0

    def test_design_accepts_obs_flags(self, tmp_path, capsys):
        record_path = tmp_path / "run.json"
        rc = main(
            ["design", "--edges", "36", "--top", "2", "--metrics-out", str(record_path)]
        )
        assert rc == 0
        capsys.readouterr()
        record = load_run_record(record_path)
        assert "cli.design" in set(_span_names(record["spans"]))

    @pytest.mark.parametrize("command", ["table1", "fig5", "design", "report"])
    def test_stragglers_expose_obs_flags(self, command):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            [command, "--profile", "--metrics-out", "x.json", "--events-out", "e.jsonl"]
        )
        assert (args.profile, args.metrics_out, args.events_out) == (
            True, "x.json", "e.jsonl"
        )


class TestEventsOut:
    def test_shards_events_out_writes_lifecycle(self, tmp_path):
        from repro.obs import read_events

        events = tmp_path / "events.jsonl"
        rc = main(
            ["shards", "complete:3", "path:4", "-o", str(tmp_path / "sh"),
             "--shards", "2", "--workers", "1", "--events-out", str(events)]
        )
        assert rc == 0
        kinds = [e["kind"] for e in read_events(events, strict=True)]
        assert kinds[0] == "shards.planned"
        assert kinds[-1] == "shards.finished"
        assert kinds.count("shard.completed") == 2

    def test_events_out_composes_with_metrics_out(self, tmp_path):
        from repro.obs import read_events

        events = tmp_path / "events.jsonl"
        record_path = tmp_path / "run.json"
        rc = main(
            ["shards", "complete:3", "path:4", "-o", str(tmp_path / "sh"),
             "--shards", "2", "--workers", "1",
             "--events-out", str(events), "--metrics-out", str(record_path)]
        )
        assert rc == 0
        load_run_record(record_path)
        assert read_events(events, strict=True)


class TestProfile:
    def test_profile_prints_tree_to_stderr(self, tmp_path, capsys):
        rc = main(["generate", "complete:3", "path:4", "-o", str(tmp_path / "e.txt"), "--profile"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "cli.generate" in err
        assert "edges_streamed_total" in err

    def test_no_flags_means_no_instrumentation_output(self, tmp_path, capsys):
        rc = main(["generate", "complete:3", "path:4", "-o", str(tmp_path / "e.txt")])
        assert rc == 0
        err = capsys.readouterr().err
        assert "cli.generate" not in err


class TestCleanErrorPaths:
    @pytest.mark.parametrize("spec", ["biclique:3", "grid:ax2"])
    def test_malformed_specs_exit_cleanly_with_usage(self, spec, capsys):
        rc = main(["generate", spec, "path:4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "usage:" in err
        assert spec in err

    def test_missing_x_message_names_expected_shape(self, capsys):
        assert main(["stats", "biclique:3", "path:4"]) == 2
        assert "biclique:MxN" in capsys.readouterr().err

    def test_module_entry_point_raises_systemexit(self, tmp_path, monkeypatch):
        """``python -m repro`` == ``sys.exit(main())``: a clean SystemExit(2)."""
        import runpy
        import sys

        monkeypatch.setattr(
            sys, "argv", ["repro", "generate", "grid:ax2", "path:4"]
        )
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_module("repro", run_name="__main__")
        assert excinfo.value.code == 2
