"""Tests for the validation harness: correct counters pass, a bestiary
of realistic bugs is caught with actionable details."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analytics import edge_squares_matrix, global_squares, vertex_squares_matrix
from repro.graphs import BipartiteGraph
from repro.validation import standard_battery, validate_counter


# ---------------------------------------------------------------------------
# Reference (correct) counters in all three shapes
# ---------------------------------------------------------------------------


def good_global(bg: BipartiteGraph) -> int:
    return global_squares(bg.graph)


def good_vertex(bg: BipartiteGraph) -> np.ndarray:
    return vertex_squares_matrix(bg.graph)


def good_edge(bg: BipartiteGraph):
    eb = edge_squares_matrix(bg.graph)[bg.U][:, bg.W].tocoo()
    U, W = bg.U, bg.W
    return {(int(U[r]), int(W[c])): int(v) for r, c, v in zip(eb.row, eb.col, eb.data)}


# ---------------------------------------------------------------------------
# The bug bestiary
# ---------------------------------------------------------------------------


def bug_off_by_one(bg):
    return good_global(bg) + 1


def bug_diagonal_leak(bg):
    X = bg.biadjacency()
    C = sp.csr_array(X @ X.T)  # forgot setdiag(0)
    w = C.data.astype(np.int64)
    return int((w * (w - 1) // 2).sum()) // 2


def bug_single_side(bg):
    # Counts U-side pairs only and forgets to halve -- wrong whenever
    # any butterfly exists.
    X = bg.biadjacency()
    C = sp.csr_array(X @ X.T).tolil()
    C.setdiag(0)
    w = sp.csr_array(C).data.astype(np.int64)
    return int((w * (w - 1) // 2).sum())


def bug_vertex_shape(bg):
    return good_vertex(bg)[:-1]  # truncated output


def bug_vertex_swapped_sides(bg):
    out = good_vertex(bg).copy()
    u, w = bg.U, bg.W
    k = min(u.size, w.size)
    out[u[:k]], out[w[:k]] = out[w[:k]].copy(), out[u[:k]].copy()
    return out


def bug_edge_missing_zero_edges(bg):
    full = good_edge(bg)
    return {e: v for e, v in full.items() if v != 0}  # drops square-free edges


def bug_raises(bg):
    raise RuntimeError("counter exploded")


class TestCorrectCounters:
    def test_global_passes(self):
        report = validate_counter(good_global, "global")
        assert report.passed, report.format()

    def test_vertex_passes(self):
        report = validate_counter(good_vertex, "vertex")
        assert report.passed, report.format()

    def test_edge_passes(self):
        report = validate_counter(good_edge, "edge")
        assert report.passed, report.format()

    def test_report_format_all_pass(self):
        text = validate_counter(good_global, "global").format()
        assert "ALL CASES PASS" in text
        assert "FAIL" not in text.replace("ALL CASES PASS", "")


class TestBugBestiary:
    @pytest.mark.parametrize(
        "bug",
        [bug_off_by_one, bug_diagonal_leak, bug_single_side],
        ids=["off-by-one", "diagonal-leak", "single-side"],
    )
    def test_global_bugs_caught(self, bug):
        report = validate_counter(bug, "global")
        assert not report.passed
        assert any("ground truth" in r.detail for r in report.failures)

    def test_vertex_shape_bug(self):
        report = validate_counter(bug_vertex_shape, "vertex")
        assert not report.passed
        assert any("shape" in r.detail for r in report.failures)

    def test_vertex_value_bug(self):
        report = validate_counter(bug_vertex_swapped_sides, "vertex")
        assert not report.passed
        assert any("first mismatch at vertex" in r.detail for r in report.failures)

    def test_edge_pattern_bug(self):
        report = validate_counter(bug_edge_missing_zero_edges, "edge")
        assert not report.passed

    def test_exceptions_reported_not_raised(self):
        report = validate_counter(bug_raises, "global")
        assert not report.passed
        assert all("RuntimeError" in r.detail for r in report.results)

    def test_format_shows_failures(self):
        text = validate_counter(bug_off_by_one, "global").format()
        assert "FAIL" in text
        assert "CASE(S) FAIL" in text


class TestBattery:
    def test_standard_battery_mixed_assumptions(self):
        from repro.kronecker import Assumption

        battery = standard_battery()
        kinds = {c.bk.assumption for c in battery}
        assert kinds == {Assumption.NON_BIPARTITE_FACTOR, Assumption.SELF_LOOPS_FACTOR}

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            validate_counter(good_global, "nonsense")

    def test_custom_battery(self):
        battery = standard_battery()[:2]
        report = validate_counter(good_global, "global", battery=battery)
        assert len(report.results) == 2
