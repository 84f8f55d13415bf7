"""Differential verification engine: chain engine vs printed forms vs brute force.

For every corpus case (seeded random factor pairs under Assumption 1(i)
and 1(ii), plus the adversarial shapes and multi-factor chains in
:mod:`repro.refcheck.corpus`) the engine materializes the product once,
computes every quantity through every implementation the repo ships —

* the chain engine (:class:`~repro.kronecker.multifactor.KroneckerChain`,
  via the public formula entry points),
* the paper's printed term-by-term ``sp.kron`` forms
  (:mod:`repro.refcheck.printed`),
* the batched oracle and the streaming generator,
* the sublinear global formulas, Thm. 7 community counts, Def. 10/11
  evaluations,

— and cross-checks each against the derivation-independent brute-force
referee (:mod:`repro.refcheck.brute`).  Any disagreement is reported as
a machine-readable *first-divergence witness*: the factor edge lists
(enough to reproduce the case exactly), the quantity, the
implementation pair, and the offending vertex or edge with both values.

``perturb="beta-sign"`` deliberately flips the sign of the degree (β)
terms in the engine's shared Def. 9 finish for the duration of the run
— the self-test proving the engine actually catches single-sign formula
bugs
(run on every push by the ``kernels`` family of ``benchmarks/smoke.py``,
and by the acceptance tests).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.kronecker import multifactor
from repro.kronecker.assumptions import Assumption, make_bipartite_product
from repro.kronecker.clustering import edge_clustering_ground_truth
from repro.kronecker.community import (
    BipartiteCommunity,
    community_counts,
    product_community,
    thm7_product_counts,
)
from repro.kronecker.ground_truth import (
    edge_squares_product,
    global_squares_product,
    vertex_squares_product,
)
from repro.kronecker.multifactor import KroneckerChain
from repro.kronecker.oracle import GroundTruthOracle
from repro.kronecker.streaming import stream_edges, streamed_connectivity_audit
from repro.kronecker.wings import (
    certified_zero_wing_edges,
    chain_wings_at_edges,
    max_wing_upper_bound,
    wing_upper_bounds,
)
from repro.analytics.peel import peel_wing_numbers
from repro.obs import get_metrics, get_tracer
from repro.refcheck import brute
from repro.refcheck.corpus import (
    VerifyCase,
    adversarial_cases,
    chain_cases,
    random_cases,
    scale_chain_cases,
    wing_chain_cases,
    wing_product_cases,
)
from repro.refcheck.metamorphic import (
    MetamorphicViolation,
    check_edge_sum_consistency,
    check_vertex_sum_consistency,
)
from repro.refcheck.printed import (
    edge_squares_product_reference,
    multi_kronecker_global_squares,
    multi_kronecker_stats,
    vertex_squares_product_reference,
)

__all__ = [
    "PERTURBATIONS",
    "DivergenceWitness",
    "VerifyReport",
    "run_verification",
    "resolve_assumptions",
]

REPORT_SCHEMA = "repro.refcheck/1"

#: Supported deliberate formula perturbations (engine self-tests).
PERTURBATIONS = ("beta-sign", "wing-support")


@dataclass(frozen=True)
class DivergenceWitness:
    """One implementation disagreeing with its reference, pinned to a
    reproducible case and the first offending location."""

    case: str
    assumption: str
    quantity: str
    implementation: str
    reference: str
    location: Dict[str, Union[int, str]]
    expected: Union[int, float, str]
    actual: Union[int, float, str]
    factors: Dict[str, dict]

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "assumption": self.assumption,
            "quantity": self.quantity,
            "implementation": self.implementation,
            "reference": self.reference,
            "location": dict(self.location),
            "expected": self.expected,
            "actual": self.actual,
            "factors": self.factors,
        }

    def format(self) -> str:
        loc = ", ".join(f"{k}={v}" for k, v in self.location.items())
        return (
            f"{self.case} [{self.assumption}] {self.quantity}: "
            f"{self.implementation} != {self.reference} at ({loc}): "
            f"expected {self.expected}, got {self.actual}"
        )


@dataclass
class VerifyReport:
    """Machine-readable outcome of one differential verification run."""

    seed: int
    trials: int
    max_factor_size: int
    assumptions: List[str]
    perturbation: Optional[str]
    tier: str = "standard"
    cases: int = 0
    checks: int = 0
    elapsed_seconds: float = 0.0
    witnesses: List[DivergenceWitness] = field(default_factory=list)

    @property
    def divergences(self) -> int:
        return len(self.witnesses)

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "trials": self.trials,
            "max_factor_size": self.max_factor_size,
            "assumptions": self.assumptions,
            "perturbation": self.perturbation,
            "tier": self.tier,
            "cases": self.cases,
            "checks": self.checks,
            "divergences": self.divergences,
            "passed": self.passed,
            "elapsed_seconds": self.elapsed_seconds,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=False)
            fh.write("\n")

    def format(self) -> str:
        head = (
            f"verify {'PASS' if self.passed else 'FAIL'}: "
            f"{self.cases} cases, {self.checks} checks, "
            f"{self.divergences} divergences "
            f"(tier={self.tier}, seed={self.seed}, trials={self.trials}, "
            f"assumptions={'/'.join(self.assumptions)}"
            + (f", perturbation={self.perturbation}" if self.perturbation else "")
            + f") in {self.elapsed_seconds:.2f}s"
        )
        lines = [head]
        for w in self.witnesses[:20]:
            lines.append(f"  DIVERGENCE {w.format()}")
        if self.divergences > 20:
            lines.append(f"  ... and {self.divergences - 20} more")
        return "\n".join(lines)


def resolve_assumptions(spec: Union[str, Sequence[Assumption]]) -> List[Assumption]:
    """``"i"`` / ``"ii"`` / ``"both"`` (or explicit enums) -> enum list."""
    if not isinstance(spec, str):
        return list(spec)
    table = {
        "i": [Assumption.NON_BIPARTITE_FACTOR],
        "ii": [Assumption.SELF_LOOPS_FACTOR],
        "both": [Assumption.NON_BIPARTITE_FACTOR, Assumption.SELF_LOOPS_FACTOR],
    }
    if spec not in table:
        raise ValueError(f"assumption must be 'i', 'ii' or 'both', got {spec!r}")
    return table[spec]


@contextmanager
def _perturbation(kind: Optional[str]):
    """Deliberately corrupt the chain engine for the scope.

    ``"beta-sign"`` flips the sign of both degree terms in the shared
    Def. 9 finish (:func:`repro.kronecker.multifactor.def9_finish`),
    turning ``ΠW3 − Πd_row − Πd_col + 1`` into
    ``ΠW3 + Πd_row + Πd_col + 1``; on ``[M, B]`` those are exactly
    Thm. 5's β terms.  Every engine consumer (whole-product CSR,
    batched oracle queries, streaming, shards) inherits the bug while
    the printed ``sp.kron`` forms and the brute-force referee stay
    honest — exactly the single-derivation failure mode the differ
    exists to catch.

    ``"wing-support"`` inflates every batched support
    (:meth:`~repro.kronecker.multifactor.KroneckerChain.edge_squares`)
    by one, the off-by-one Rem. 1 is most sensitive to: the oracle's
    wing bounds drift away from the brute set-intersection supports,
    so the wings tier must report divergences (the exit-4 drill in CI).
    """
    if kind in (None, "none"):
        yield
        return
    if kind not in PERTURBATIONS:
        raise ValueError(f"unknown perturbation {kind!r}; choose from {PERTURBATIONS}")
    if kind == "wing-support":
        owner, name = KroneckerChain, "edge_squares"
        original = KroneckerChain.edge_squares

        def patched(self, ps, qs):
            values, valid = original(self, ps, qs)
            return values + valid, valid
    else:
        owner, name = multifactor, "def9_finish"
        original = multifactor.def9_finish

        def patched(w3, drow, dcol):
            return w3 + drow + dcol + 1

    setattr(owner, name, patched)
    try:
        yield
    finally:
        setattr(owner, name, original)


# ---------------------------------------------------------------------------
# Per-case checking
# ---------------------------------------------------------------------------


class _CaseChecker:
    """Runs every cross-check for one corpus case, collecting witnesses."""

    def __init__(self, case: VerifyCase, report: VerifyReport):
        self.case = case
        self.report = report
        self.spec = case.spec()

    # -- witness plumbing ---------------------------------------------------

    def _witness(self, quantity, implementation, reference, location, expected, actual):
        self.report.witnesses.append(
            DivergenceWitness(
                case=self.case.label,
                assumption=self.case.assumption.value,
                quantity=quantity,
                implementation=implementation,
                reference=reference,
                location=location,
                expected=expected,
                actual=actual,
                factors={"A": self.spec["A"], "B": self.spec["B"]},
            )
        )

    def _check_vector(self, quantity, implementation, actual, expected, reference="brute"):
        """Per-vertex arrays; records the first diverging vertex."""
        self.report.checks += 1
        actual = np.asarray(actual)
        expected = np.asarray(expected)
        if actual.shape != expected.shape:
            self._witness(quantity, implementation, reference,
                          {"kind": "shape"}, str(expected.shape), str(actual.shape))
            return
        bad = np.flatnonzero(actual != expected)
        if bad.size:
            p = int(bad[0])
            self._witness(quantity, implementation, reference,
                          {"kind": "vertex", "vertex": p},
                          int(expected[p]), int(actual[p]))

    def _check_edge_values(self, quantity, implementation, pairs, actual,
                           expected_by_edge, reference="brute"):
        """Per-edge values against the brute dict; first diverging edge."""
        self.report.checks += 1
        for (p, q), val in zip(pairs, actual):
            want = expected_by_edge[(min(p, q), max(p, q))]
            if val != want:
                self._witness(quantity, implementation, reference,
                              {"kind": "edge", "p": int(p), "q": int(q)},
                              want, val)
                return

    def _check_scalar(self, quantity, implementation, actual, expected, reference="brute"):
        self.report.checks += 1
        if actual != expected:
            self._witness(quantity, implementation, reference,
                          {"kind": "global"}, expected, actual)

    # -- the checks ---------------------------------------------------------

    def run(self) -> None:
        case = self.case
        bk = make_bipartite_product(case.A, case.B, case.assumption,
                                    require_connected=False)
        C = bk.materialize()
        nbrs = brute.neighbor_sets(C)
        deg_ref = brute.degrees(C, nbrs)
        s_ref = brute.squares_at_vertices(C, nbrs)
        dia_ref = brute.squares_at_edges(C, nbrs)
        global_ref = brute.global_squares(C, nbrs)
        oracle = GroundTruthOracle(bk)
        all_vertices = np.arange(bk.n, dtype=np.int64)

        # Vertex counts: chain engine, printed kron terms, batched oracle.
        self._check_vector("vertex_squares", "chain-engine",
                           vertex_squares_product(bk), s_ref)
        self._check_vector("vertex_squares", "printed-form",
                           vertex_squares_product_reference(bk), s_ref)
        self._check_vector("vertex_squares", "oracle-batch",
                           oracle.squares_at_vertices(all_vertices), s_ref)
        self._check_vector("degrees", "oracle-batch",
                           oracle.degrees(all_vertices), deg_ref)

        # Edge counts: engine CSR, printed CSR, batched oracle, stream.
        engine = sp.csr_array(edge_squares_product(bk))
        printed = sp.csr_array(edge_squares_product_reference(bk))
        self._check_pattern(engine, C)
        coo = engine.tocoo()
        pairs = list(zip(coo.row.tolist(), coo.col.tolist()))
        self._check_edge_values("edge_squares", "chain-engine",
                                pairs, coo.data.tolist(), dia_ref)
        lcoo = printed.tocoo()
        self._check_edge_values("edge_squares", "printed-form",
                                list(zip(lcoo.row.tolist(), lcoo.col.tolist())),
                                lcoo.data.tolist(), dia_ref)
        u_arr, v_arr = C.edge_arrays()
        if u_arr.size:
            self._check_edge_values(
                "edge_squares", "oracle-batch",
                list(zip(u_arr.tolist(), v_arr.tolist())),
                oracle.squares_at_edges(u_arr, v_arr).tolist(), dia_ref)
        streamed_pairs: List[Tuple[int, int]] = []
        streamed_vals: List[int] = []
        for p, q, dia in stream_edges(bk.chain, attach_ground_truth=True):
            streamed_pairs.extend(zip(p.tolist(), q.tolist()))
            streamed_vals.extend(np.asarray(dia).tolist())
        self._check_edge_values("edge_squares", "stream",
                                streamed_pairs, streamed_vals, dia_ref)
        self._check_scalar("edge_count", "stream", len(streamed_pairs), int(C.nnz),
                           reference="materialized-adjacency")

        # Global counts, sublinear.
        self._check_scalar("global_squares", "sublinear-formula",
                           global_squares_product(bk), global_ref)
        self._check_scalar("global_squares", "oracle",
                           oracle.global_squares(), global_ref)

        # Structure: claimed bipartition, brute bipartiteness, components.
        self.report.checks += 1
        if not brute.is_proper_two_coloring(C, bk.product_part()):
            self._witness("bipartition", "product-part", "brute",
                          {"kind": "global"}, "proper 2-coloring", "edge inside a part")
        self._check_scalar("bipartite", "brute-bfs",
                           brute.two_coloring(C) is not None, True,
                           reference="paper-claim")
        n_comp, audit_edges = streamed_connectivity_audit(bk.chain)
        labels = brute.connected_components(C)
        self._check_scalar("connectivity", "stream-audit", n_comp,
                           int(np.unique(labels).size))
        self._check_scalar("edge_count", "stream-audit", audit_edges, int(C.m),
                           reference="materialized-adjacency")

        # Clustering (Def. 10) on every eligible product edge.
        self._check_clustering(bk, C, nbrs)

        # Communities (Thm. 7 / Def. 11), Assumption 1(ii) only.
        if case.assumption is Assumption.SELF_LOOPS_FACTOR:
            self._check_communities(bk, C)

        # Metamorphic tiling consistency (vertex/edge sums vs global).
        for check, name in ((check_vertex_sum_consistency, "vertex_sum"),
                            (check_edge_sum_consistency, "edge_sum")):
            self.report.checks += 1
            try:
                check(bk)
            except MetamorphicViolation as exc:
                self._witness(name, "formula-layer", "tiling-identity",
                              {"kind": "global"}, "consistent", str(exc))

    def _check_pattern(self, engine: sp.csr_array, C: Graph) -> None:
        """The ◇ CSR pattern must equal the product adjacency pattern."""
        self.report.checks += 1
        adj = sp.csr_array(C.adj)
        if not (np.array_equal(engine.indptr, adj.indptr)
                and np.array_equal(engine.indices, adj.indices)):
            self._witness("edge_pattern", "chain-engine", "materialized-adjacency",
                          {"kind": "global"}, f"nnz={adj.nnz}", f"nnz={engine.nnz}")

    def _check_clustering(self, bk, C: Graph, nbrs) -> None:
        self.report.checks += 1
        gamma_ref = brute.clustering_at_edges(C, nbrs)
        p_arr, q_arr, gamma = edge_clustering_ground_truth(bk)
        seen = 0
        for p, q, g in zip(p_arr.tolist(), q_arr.tolist(), gamma.tolist()):
            want = gamma_ref.get((min(p, q), max(p, q)))
            if want is None or abs(g - want) > 1e-12:
                self._witness("edge_clustering", "ground-truth", "brute",
                              {"kind": "edge", "p": int(p), "q": int(q)},
                              want if want is not None else "not eligible", g)
                return
            seen += 1
        # Both directions of every eligible edge must have been produced.
        if seen != 2 * len(gamma_ref):
            self._witness("edge_clustering", "ground-truth", "brute",
                          {"kind": "global"}, 2 * len(gamma_ref), seen)

    def _check_communities(self, bk, C: Graph) -> None:
        if bk.A_bipartite is None:
            return
        # Deterministic community choice: every other vertex of each factor.
        members_a = np.arange(0, bk.A.n, 2, dtype=np.int64)
        members_b = np.arange(0, bk.B.graph.n, 2, dtype=np.int64)
        if members_a.size == 0 or members_b.size == 0:
            return
        comm_a = BipartiteCommunity(bk.A_bipartite, members_a)
        comm_b = BipartiteCommunity(bk.B, members_b)
        comm_c = product_community(bk, comm_a, comm_b)
        ref = brute.community_edge_counts(C, comm_c.members.tolist())
        self._check_scalar("community_counts", "thm7",
                           thm7_product_counts(comm_a, comm_b), ref)
        self._check_scalar("community_counts", "def11-linear-algebra",
                           community_counts(comm_c), ref)


def _check_chain(label: str, factors: List[Graph], report: VerifyReport) -> None:
    """Multi-factor fold (``combine_stats``) vs brute on the full chain."""
    combined = multi_kronecker_stats(factors)
    product = factors[0].adj
    for f in factors[1:]:
        product = sp.kron(product, f.adj, format="csr")
    chain_graph = Graph(sp.csr_array(product))
    nbrs = brute.neighbor_sets(chain_graph)
    checker = _CaseChecker(
        VerifyCase(label, Assumption.NON_BIPARTITE_FACTOR, factors[0], factors[-1]),
        report,
    )
    checker._check_vector("chain_vertex_squares", "combine-stats",
                          combined.s, brute.squares_at_vertices(chain_graph, nbrs))
    checker._check_vector("chain_degrees", "combine-stats",
                          combined.d, brute.degrees(chain_graph, nbrs))
    checker._check_scalar("chain_global_squares", "combine-stats",
                          combined.global_squares(),
                          brute.global_squares(chain_graph, nbrs))
    coo = sp.csr_array(combined.diamond).tocoo()
    checker._check_edge_values("chain_edge_squares", "combine-stats",
                               list(zip(coo.row.tolist(), coo.col.tolist())),
                               coo.data.tolist(),
                               brute.squares_at_edges(chain_graph, nbrs))


def _check_scale_chain(label: str, factors: List[Graph], report: VerifyReport) -> None:
    """Streamed, sharded deep-chain ground truth vs brute force.

    The extreme-scale tier's referee: plan a degree-balanced partition
    of the chain's product row space, stream every shard with attached
    ground truth (deliberately small ``block_entries`` so multi-block
    assembly is exercised), and cross-check

    * each shard's per-entry 4-cycle counts against brute force on the
      fully materialized chain product,
    * each shard's closed-form vertex-square range sum against the
      brute per-vertex sum over the same row range,
    * the shard union's entry count against the product's nnz (complete
      non-overlapping cover), and
    * the closed-form global count against both brute force and the
      independent ``combine_stats`` fold.
    """
    from repro.parallel.partition import plan_partition, shard_of_rows

    chain = KroneckerChain.from_graphs(factors)
    product = factors[0].adj
    for f in factors[1:]:
        product = sp.kron(product, f.adj, format="csr")
    chain_graph = Graph(sp.csr_array(product))
    nbrs = brute.neighbor_sets(chain_graph)
    brute_edges = brute.squares_at_edges(chain_graph, nbrs)
    brute_vertices = brute.squares_at_vertices(chain_graph, nbrs)
    checker = _CaseChecker(
        VerifyCase(label, Assumption.NON_BIPARTITE_FACTOR, factors[0], factors[-1]),
        report,
    )
    plan = plan_partition(chain, 4, "degree")
    entries_seen = 0
    squares_sum = 0
    for start, stop in plan.bounds:
        blocks = list(shard_of_rows(
            chain, start, stop, attach_ground_truth=True, block_entries=64
        ))
        p, q, squares = (
            np.concatenate([b[k] for b in blocks] or [np.zeros(0, dtype=np.int64)])
            for k in range(3)
        )
        checker._check_edge_values(
            f"scale_edge_squares[{start}:{stop}]", "streamed-shard",
            list(zip(p.tolist(), q.tolist())), squares.tolist(), brute_edges,
        )
        checker._check_scalar(
            f"scale_vertex_squares[{start}:{stop}]", "range-closed-form",
            chain.vertex_squares_range_sum(start, stop),
            int(brute_vertices[start:stop].sum()),
        )
        entries_seen += int(p.size)
        squares_sum += int(squares.sum())
    checker._check_scalar("scale_cover_entries", "degree-partition",
                          entries_seen, int(chain_graph.nnz))
    checker._check_scalar("scale_global_squares", "chain-closed-form",
                          chain.global_squares(),
                          brute.global_squares(chain_graph, nbrs))
    checker._check_scalar("scale_squares_edge_sum", "streamed-shard",
                          squares_sum,
                          8 * multi_kronecker_global_squares(factors),
                          reference="combine-stats")


def _first_wing_divergence(checker, quantity, implementation, actual, expected):
    """Compare two ``(u, v) -> wing`` dicts; witness the first mismatch."""
    checker.report.checks += 1
    if actual == expected:
        return
    for key in sorted(set(actual) | set(expected)):
        a, b = actual.get(key), expected.get(key)
        if a != b:
            checker._witness(quantity, implementation, "brute-peel",
                             {"kind": "edge", "p": key[0], "q": key[1]},
                             b if b is not None else "absent",
                             a if a is not None else "absent")
            return


def _check_wing_invariants(checker, pairs, bounds, wing_ref, implementation):
    """Rem. 1 on formula output: peel never exceeds the ◇ bound, and a
    0 bound certifies wing exactly 0."""
    checker.report.checks += 1
    for (p, q), b in zip(pairs, bounds):
        w = wing_ref[(min(p, q), max(p, q))]
        if w > b or (b == 0 and w != 0):
            checker._witness("wing_bound", implementation, "brute-peel",
                             {"kind": "edge", "p": int(p), "q": int(q)},
                             f"peel {w} <= bound, 0-bound exact", int(b))
            return


def _check_wings_product(case: VerifyCase, report: VerifyReport) -> None:
    """Wings tier, factor-pair leg: Rem. 1 support bounds vs brute peel.

    Materializes the product, recomputes edge supports by literal set
    intersection and wing numbers by brute batch peeling, then
    cross-checks every formula-side wings surface: the batched oracle
    (`wings_at_edges`, the ``/v1/wings`` answer path), the supports
    streamed from the product's chain, the certified-zero edge list
    (Rem. 1 equality), the max-bound reduction, and the production
    lazy-heap peeling engine.
    """
    bk = make_bipartite_product(case.A, case.B, case.assumption,
                                require_connected=False)
    C = bk.materialize()
    nbrs = brute.neighbor_sets(C)
    support_ref = brute.squares_at_edges(C, nbrs)
    wing_ref = brute.wing_peel(C, nbrs)
    max_support = max(support_ref.values(), default=0)
    checker = _CaseChecker(case, report)
    oracle = GroundTruthOracle(bk)
    u_arr, v_arr = C.edge_arrays()
    if u_arr.size:
        bounds = oracle.wings_at_edges(u_arr, v_arr)
        pairs = list(zip(u_arr.tolist(), v_arr.tolist()))
        checker._check_edge_values("wing_support", "oracle-batch",
                                   pairs, bounds.tolist(), support_ref)
        _check_wing_invariants(checker, pairs, bounds.tolist(), wing_ref,
                               "oracle-batch")
    streamed_pairs: List[Tuple[int, int]] = []
    streamed_vals: List[int] = []
    for p, q, b in wing_upper_bounds(bk.chain):
        streamed_pairs.extend(zip(p.tolist(), q.tolist()))
        streamed_vals.extend(b.tolist())
    checker._check_edge_values("wing_support", "engine-stream",
                               streamed_pairs, streamed_vals, support_ref)
    checker.report.checks += 1
    for p, q in certified_zero_wing_edges(bk.chain).tolist():
        key = (min(p, q), max(p, q))
        if support_ref[key] != 0 or wing_ref[key] != 0:
            checker._witness("wing_certified_zero", "rem1-certificate",
                             "brute-peel",
                             {"kind": "edge", "p": int(p), "q": int(q)},
                             0, int(wing_ref[key] or support_ref[key]))
            break
    checker._check_scalar("max_wing_support", "oracle-reduce",
                          oracle.max_wing_bound(), max_support)
    checker._check_scalar("max_wing_support", "engine-max",
                          max_wing_upper_bound(bk.chain), max_support)
    checker.report.checks += 1
    max_wing = max(wing_ref.values(), default=0)
    if max_wing > oracle.max_wing_bound():
        checker._witness("max_wing_bound", "oracle-reduce", "brute-peel",
                         {"kind": "global"}, f">= {max_wing}",
                         oracle.max_wing_bound())
    _first_wing_divergence(checker, "wing_number", "peel-engine",
                           peel_wing_numbers(C.adj).wing, wing_ref)


def _check_wings_chain(label: str, factors: List[Graph], report: VerifyReport) -> None:
    """Wings tier, chain leg: streamed and digit-probe supports vs brute.

    Same referee as :func:`_check_wings_product` but over an n-factor
    :class:`KroneckerChain`: the block-streamed bounds (deliberately
    tiny ``block_entries``), the mixed-radix digit-probe batch path,
    the streamed certified-zero and max reductions, and the peeling
    engine on the materialized chain product.
    """
    chain = KroneckerChain.from_graphs(factors)
    product = factors[0].adj
    for f in factors[1:]:
        product = sp.kron(product, f.adj, format="csr")
    chain_graph = Graph(sp.csr_array(product))
    nbrs = brute.neighbor_sets(chain_graph)
    support_ref = brute.squares_at_edges(chain_graph, nbrs)
    wing_ref = brute.wing_peel(chain_graph, nbrs)
    max_support = max(support_ref.values(), default=0)
    checker = _CaseChecker(
        VerifyCase(label, Assumption.NON_BIPARTITE_FACTOR, factors[0], factors[-1]),
        report,
    )
    streamed_pairs: List[Tuple[int, int]] = []
    streamed_vals: List[int] = []
    for p, q, b in wing_upper_bounds(chain, block_entries=64):
        streamed_pairs.extend(zip(p.tolist(), q.tolist()))
        streamed_vals.extend(np.asarray(b).tolist())
    checker._check_edge_values("wing_support", "streamed-chain",
                               streamed_pairs, streamed_vals, support_ref)
    checker._check_scalar("wing_entry_cover", "streamed-chain",
                          len(streamed_pairs), int(chain_graph.nnz),
                          reference="materialized-adjacency")
    _check_wing_invariants(checker, streamed_pairs, streamed_vals, wing_ref,
                           "streamed-chain")
    u_arr, v_arr = chain_graph.edge_arrays()
    if u_arr.size:
        vals = chain_wings_at_edges(chain, u_arr, v_arr)
        checker._check_edge_values("wing_support", "chain-digit-probe",
                                   list(zip(u_arr.tolist(), v_arr.tolist())),
                                   vals.tolist(), support_ref)
    checker.report.checks += 1
    for p, q in certified_zero_wing_edges(chain).tolist():
        key = (min(p, q), max(p, q))
        if support_ref[key] != 0 or wing_ref[key] != 0:
            checker._witness("wing_certified_zero", "rem1-certificate",
                             "brute-peel",
                             {"kind": "edge", "p": int(p), "q": int(q)},
                             0, int(wing_ref[key] or support_ref[key]))
            break
    checker._check_scalar("max_wing_support", "streamed-max",
                          max_wing_upper_bound(chain), max_support)
    _first_wing_divergence(checker, "wing_number", "peel-engine",
                           peel_wing_numbers(chain_graph.adj).wing, wing_ref)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_verification(
    seed: int = 0,
    trials: int = 50,
    max_factor_size: int = 6,
    assumption: Union[str, Sequence[Assumption]] = "both",
    include_adversarial: bool = True,
    include_chains: bool = True,
    perturb: Optional[str] = None,
    tier: str = "standard",
) -> VerifyReport:
    """Run the full differential sweep and return the report.

    ``trials`` seeded random factor pairs (alternating over the selected
    assumptions) plus the adversarial corpora and multi-factor chains;
    every case is checked through every implementation against brute
    force.  The run is wired through the obs layer: spans
    ``verify.random`` / ``verify.adversarial`` / ``verify.chains`` and
    counters ``verify.cases_total`` / ``verify.checks_total`` /
    ``verify.divergences_total`` land in ``--profile`` /
    ``--metrics-out`` output like any other workload.

    ``tier="scale"`` runs the extreme-scale corpus instead: 3-4-factor
    deep chains whose *streamed, degree-partitioned shard* ground truth
    (:func:`~repro.parallel.partition.shard_of_rows`) is cross-checked
    shard by shard against a brute-force referee on the materialized
    chain product.  Same report shape, same exit-4 contract via
    ``passed``.

    ``tier="wings"`` runs the wings corpus: factor pairs and 3-factor
    chains whose Rem. 1 support bounds (oracle batch, engine stream,
    streamed chain blocks, digit-probe batch) are checked against the
    brute set-intersection supports, and whose exact wing numbers —
    brute batch peel vs the production lazy-heap engine — must respect
    the bounds everywhere with equality on certified-zero edges.
    """
    if tier not in ("standard", "scale", "wings"):
        raise ValueError(
            f"unknown verification tier {tier!r} (standard, scale or wings)"
        )
    assumptions = resolve_assumptions(assumption)
    report = VerifyReport(
        seed=seed,
        trials=trials,
        max_factor_size=max_factor_size,
        assumptions=[a.value for a in assumptions],
        perturbation=None if perturb in (None, "none") else perturb,
        tier=tier,
    )
    tracer = get_tracer()
    metrics = get_metrics()
    cases_total = metrics.counter("verify.cases_total")
    t0 = time.perf_counter()
    with _perturbation(perturb):
        if tier == "scale":
            with tracer.span("verify.scale"):
                for label, factors in scale_chain_cases():
                    _check_scale_chain(label, factors, report)
                    report.cases += 1
                    cases_total.inc()
        elif tier == "wings":
            with tracer.span("verify.wings"):
                for case in wing_product_cases():
                    _check_wings_product(case, report)
                    report.cases += 1
                    cases_total.inc()
                for label, factors in wing_chain_cases():
                    _check_wings_chain(label, factors, report)
                    report.cases += 1
                    cases_total.inc()
        else:
            batches = [("verify.random",
                        random_cases(seed, trials, max_factor_size, assumptions))]
            if include_adversarial:
                batches.append(("verify.adversarial", adversarial_cases(assumptions)))
            for span_name, cases in batches:
                with tracer.span(span_name, cases=len(cases)):
                    for case in cases:
                        _CaseChecker(case, report).run()
                        report.cases += 1
                        cases_total.inc()
            if include_chains:
                with tracer.span("verify.chains"):
                    for label, factors in chain_cases():
                        _check_chain(label, factors, report)
                        report.cases += 1
                        cases_total.inc()
    report.elapsed_seconds = time.perf_counter() - t0
    metrics.counter("verify.checks_total").inc(report.checks)
    metrics.counter("verify.divergences_total").inc(report.divergences)
    return report
