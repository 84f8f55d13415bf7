"""Tests for the differential engine: clean runs, perturbation drills,
witness reproduction, and report serialization."""

import json

import numpy as np
import pytest

from repro.kronecker import Assumption
from repro.refcheck import (
    PERTURBATIONS,
    adversarial_cases,
    chain_cases,
    graph_from_spec,
    random_cases,
    resolve_assumptions,
    run_verification,
)
from repro.refcheck.differ import _perturbation
from repro.kronecker import multifactor


BOTH = [Assumption.NON_BIPARTITE_FACTOR, Assumption.SELF_LOOPS_FACTOR]


class TestCleanRuns:
    def test_small_clean_run_has_zero_divergences(self):
        report = run_verification(seed=0, trials=8, max_factor_size=5)
        assert report.passed
        assert report.divergences == 0
        assert report.cases == 8 + len(adversarial_cases(BOTH)) + len(chain_cases())
        assert report.checks > report.cases  # several checks per case

    def test_single_assumption_runs(self):
        for spec, value in (("i", "1(i)"), ("ii", "1(ii)")):
            report = run_verification(
                seed=1, trials=4, max_factor_size=4, assumption=spec
            )
            assert report.passed
            assert report.assumptions == [value]

    def test_seed_determinism(self):
        a = run_verification(seed=5, trials=5, max_factor_size=4)
        b = run_verification(seed=5, trials=5, max_factor_size=4)
        assert a.cases == b.cases and a.checks == b.checks
        assert a.passed and b.passed


class TestPerturbationDrill:
    """The acceptance criterion: an injected β sign flip must be caught."""

    def test_beta_sign_flip_is_caught_with_witness(self):
        report = run_verification(
            seed=0, trials=4, max_factor_size=5, perturb="beta-sign"
        )
        assert not report.passed
        assert report.divergences > 0
        w = report.witnesses[0]
        # Witness pins a concrete location and carries the factor specs.
        assert w.location["kind"] in ("edge", "global", "vertex")
        assert set(w.factors) == {"A", "B"}
        assert w.expected != w.actual

    def test_perturbation_only_hits_fused_paths(self):
        report = run_verification(
            seed=0, trials=4, max_factor_size=5, perturb="beta-sign"
        )
        diverged = {w.implementation for w in report.witnesses}
        # Every consumer of the chain's Def. 9 finish diverges ...
        assert "chain-engine" in diverged
        assert "oracle-batch" in diverged
        assert "stream" in diverged
        # ... while the printed sp.kron forms stay clean (they never
        # call the patched finish).
        assert "printed-form" not in diverged

    def test_perturbation_restores_on_exit(self):
        original = multifactor.def9_finish
        with _perturbation("beta-sign"):
            assert multifactor.def9_finish is not original
        assert multifactor.def9_finish is original
        original = multifactor.KroneckerChain.edge_squares
        with _perturbation("wing-support"):
            assert multifactor.KroneckerChain.edge_squares is not original
        assert multifactor.KroneckerChain.edge_squares is original

    def test_unknown_perturbation_rejected(self):
        with pytest.raises(ValueError, match="unknown perturbation"):
            run_verification(seed=0, trials=1, perturb="gamma-flip")
        assert PERTURBATIONS == ("beta-sign", "wing-support")


class TestWitnessReproduction:
    def test_graph_from_spec_round_trips(self):
        for case in random_cases(3, 6, 5, BOTH):
            spec = case.spec()
            A = graph_from_spec(spec["A"])
            B = graph_from_spec(spec["B"])
            assert A.n == case.A.n and B.n == case.B.n
            np.testing.assert_array_equal(A.adj.toarray(), case.A.adj.toarray())
            np.testing.assert_array_equal(B.adj.toarray(), case.B.adj.toarray())

    def test_witness_factors_reproduce_the_divergence(self):
        report = run_verification(
            seed=2, trials=2, max_factor_size=4, perturb="beta-sign",
            include_adversarial=False, include_chains=False,
        )
        w = next(w for w in report.witnesses if w.implementation == "chain-engine")
        from repro.kronecker import edge_squares_product, make_bipartite_product
        from repro.refcheck import brute

        assumption = (
            Assumption.NON_BIPARTITE_FACTOR
            if w.assumption == "1(i)"
            else Assumption.SELF_LOOPS_FACTOR
        )
        bk = make_bipartite_product(
            graph_from_spec(w.factors["A"]),
            graph_from_spec(w.factors["B"]),
            assumption,
            require_connected=False,
        )
        # Unperturbed, the implementation agrees with the witness's
        # expected (brute) value at the recorded location.
        p, q = w.location["p"], w.location["q"]
        assert edge_squares_product(bk)[p, q] == w.expected
        C = bk.materialize()
        assert brute.squares_at_edges(C)[(min(p, q), max(p, q))] == w.expected


class TestReportSerialization:
    def test_report_json_schema(self, tmp_path):
        report = run_verification(seed=0, trials=2, max_factor_size=4)
        path = tmp_path / "report.json"
        report.write(path)
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.refcheck/1"
        assert data["passed"] is True
        assert data["divergences"] == 0
        assert data["witnesses"] == []
        assert data["cases"] == report.cases
        assert data["elapsed_seconds"] > 0

    def test_perturbed_report_witnesses_serialize(self, tmp_path):
        report = run_verification(
            seed=0, trials=2, max_factor_size=4, perturb="beta-sign"
        )
        path = tmp_path / "report.json"
        report.write(path)
        data = json.loads(path.read_text())
        assert data["perturbation"] == "beta-sign"
        assert data["divergences"] == len(data["witnesses"]) > 0
        w = data["witnesses"][0]
        assert {"case", "assumption", "quantity", "implementation",
                "reference", "location", "expected", "actual", "factors"} <= set(w)

    def test_format_lists_divergences(self):
        report = run_verification(
            seed=0, trials=2, max_factor_size=4, perturb="beta-sign"
        )
        text = report.format()
        assert "DIVERGENCE" in text
        assert "perturbation=beta-sign" in text


class TestResolveAssumptions:
    def test_specs(self):
        assert resolve_assumptions("i") == [Assumption.NON_BIPARTITE_FACTOR]
        assert resolve_assumptions("ii") == [Assumption.SELF_LOOPS_FACTOR]
        assert resolve_assumptions("both") == BOTH
        assert resolve_assumptions(BOTH) == BOTH

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="assumption"):
            resolve_assumptions("iii")
