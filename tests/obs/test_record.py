"""Run records: schema round-trip, validation, rendering, runtime switch."""

import json

import pytest

from repro.obs import (
    SCHEMA_VERSION,
    build_run_record,
    disable,
    enable,
    get_metrics,
    get_tracer,
    instrument,
    is_enabled,
    load_run_record,
    render_run_record,
    validate_run_record,
    write_run_record,
)


def _sample_record():
    with instrument() as (tracer, metrics):
        with tracer.span("root", stage="demo") as sp:
            sp.count("blocks", 2)
            with tracer.span("inner"):
                metrics.counter("edges_streamed_total").inc(36)
                metrics.gauge("n_workers").set(2)
                metrics.histogram("block_bytes").observe(96.0)
        return build_run_record(
            "unit test", tracer=tracer, metrics=metrics, config={"factor": "path:4"}
        )


class TestBuildAndRoundTrip:
    def test_schema_fields(self):
        record = _sample_record()
        assert validate_run_record(record) == []
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["config"] == {"factor": "path:4"}
        assert record["env"]["python"]
        assert record["metrics"]["counters"]["edges_streamed_total"] == 36
        (root,) = record["spans"]
        assert root["counters"] == {"blocks": 2}
        assert [c["name"] for c in root["children"]] == ["inner"]

    def test_write_load_round_trip(self, tmp_path):
        record = _sample_record()
        path = write_run_record(record, tmp_path / "run.json")
        loaded = load_run_record(path)
        assert loaded == record
        # Pretty, newline-terminated JSON (diffable artifact).
        text = path.read_text()
        assert text.endswith("\n") and text.startswith("{\n")

    def test_json_serializable_without_custom_encoder(self):
        json.dumps(_sample_record())


class TestValidation:
    def test_rejects_non_object(self):
        assert validate_run_record([1, 2]) == ["record is not a JSON object"]

    def test_flags_missing_fields_and_version(self):
        problems = validate_run_record({"schema_version": 99})
        assert any("schema_version" in p for p in problems)
        assert any("'spans'" in p for p in problems)

    def test_flags_bad_span(self):
        record = _sample_record()
        record["spans"][0]["children"].append({"elapsed_s": "fast"})
        problems = validate_run_record(record)
        assert any("children[1]" in p for p in problems)

    def test_write_refuses_invalid(self, tmp_path):
        with pytest.raises(ValueError, match="invalid run record"):
            write_run_record({"schema_version": 1}, tmp_path / "bad.json")

    def test_load_rejects_tampered(self, tmp_path):
        record = _sample_record()
        path = write_run_record(record, tmp_path / "run.json")
        data = json.loads(path.read_text())
        del data["metrics"]
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="invalid run record"):
            load_run_record(path)


class TestRendering:
    def test_console_tree_mentions_spans_and_metrics(self, capsys):
        record = _sample_record()
        text = render_run_record(record)
        for token in ("root", "inner", "edges_streamed_total", "block_bytes", "n_workers"):
            assert token in text
        assert capsys.readouterr().out == ""  # no print without a file
        import io

        buf = io.StringIO()
        render_run_record(record, file=buf)
        assert "edges_streamed_total" in buf.getvalue()

    def test_error_span_flagged(self):
        with instrument() as (tracer, metrics):
            with pytest.raises(ValueError):
                with tracer.span("explodes"):
                    raise ValueError()
            record = build_run_record("err", tracer=tracer, metrics=metrics)
        assert "[ERROR]" in render_run_record(record)


class TestRuntimeSwitch:
    def test_disabled_by_default_and_restored(self):
        assert not is_enabled()
        before = (get_tracer(), get_metrics())
        with instrument() as (tracer, metrics):
            assert is_enabled()
            assert get_tracer() is tracer and get_metrics() is metrics
        assert not is_enabled()
        assert (get_tracer(), get_metrics()) == before

    def test_instrument_nests(self):
        with instrument() as (outer_tracer, _):
            with instrument() as (inner_tracer, _):
                assert get_tracer() is inner_tracer
            assert get_tracer() is outer_tracer

    def test_restores_even_on_error(self):
        with pytest.raises(RuntimeError):
            with instrument():
                raise RuntimeError()
        assert not is_enabled()

    def test_enable_disable(self):
        tracer, metrics = enable()
        try:
            assert get_tracer() is tracer and get_metrics() is metrics
            assert is_enabled()
        finally:
            disable()
        assert not is_enabled()

    def test_instrumented_library_paths_feed_the_record(self):
        """End-to-end: stream + oracle under instrument() land in one record."""
        from repro.generators import cycle_graph, path_graph
        from repro.kronecker import Assumption, GroundTruthOracle, make_bipartite_product, stream_edges

        bk = make_bipartite_product(cycle_graph(3), path_graph(4), Assumption.NON_BIPARTITE_FACTOR)
        with instrument() as (tracer, metrics):
            oracle = GroundTruthOracle(bk)
            oracle.global_squares()
            oracle.degree(0)
            streamed = sum(p.size for p, _ in stream_edges(bk.chain))
            record = build_run_record("lib", tracer=tracer, metrics=metrics)
        counters = record["metrics"]["counters"]
        assert counters["edges_streamed_total"] == streamed == bk.M.nnz * bk.B.graph.nnz
        assert counters["oracle_queries_total"] == 2
        assert any(sp["name"] == "oracle.setup" for sp in record["spans"])
