"""``ChainFactor``'s walk tables (``w2``, ``cw4``, ``w3``) are built on
first read only.

Degree plans and plain entry streams read the CSR pattern and ``d``
alone, so they must never pay for the tables; a ground-truth shard run
builds them once per factor in the parent, and a loaded artifact never
builds them.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.generators import preferential_attachment
from repro.generators.classic import cycle_graph, path_graph
from repro.kronecker import GroundTruthOracle, make_bipartite_product, multifactor
from repro.kronecker.assumptions import Assumption
from repro.kronecker.multifactor import KroneckerChain
from repro.kronecker.streaming import stream_edges
from repro.parallel.generate import generate_chain_shards
from repro.parallel.partition import plan_partition
from repro.serve import load_oracle, save_oracle

WALK_TABLES = ("w2", "cw4", "w3")


@pytest.fixture
def builds(monkeypatch, tmp_path):
    """Spy on the table builder; returns the pids of its calls, one per
    build, read from a file so pool workers' calls count too."""
    log = tmp_path / "builds.log"
    build = multifactor._walk_tables

    def spy(factor):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return build(factor)

    monkeypatch.setattr(multifactor, "_walk_tables", spy)
    return lambda: [int(line) for line in log.read_text().split()] if log.exists() else []


def _chain() -> KroneckerChain:
    return KroneckerChain.from_graphs(
        [preferential_attachment(16, 2, seed=11 + t) for t in range(3)]
    )


def _unbuilt(chain: KroneckerChain) -> bool:
    return all(f.__dict__[name] is None for f in chain.factors for name in WALK_TABLES)


def test_plan_and_plain_stream_build_no_tables(builds):
    chain = _chain()
    plan_partition(chain, 4, "degree")
    entries = sum(block[0].size for block in chain.stream_rows(0, chain.n))
    assert entries == chain.nnz
    assert builds() == []
    assert _unbuilt(chain)


def test_plain_stream_edges_builds_no_tables(builds):
    bk = make_bipartite_product(cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR)
    chain = bk.chain
    assert sum(block[0].size for block in stream_edges(chain)) == chain.nnz
    assert builds() == []
    assert _unbuilt(chain)


def test_first_read_builds_all_three_tables_once(builds):
    chain = _chain()
    factor = chain.factors[0]
    w3 = factor.w3
    assert builds() == [os.getpid()]
    assert factor.w3 is w3
    assert all(factor.__dict__[name] is not None for name in WALK_TABLES)
    assert factor.w2.shape == factor.cw4.shape == (factor.n,)
    assert len(builds()) == 1


def test_ground_truth_shards_build_tables_once_in_the_parent(builds, tmp_path):
    chain = _chain()
    generate_chain_shards(chain, tmp_path / "shards", n_shards=4, n_workers=2, ground_truth=True)
    assert builds() == [os.getpid()] * len(chain.factors)


def test_loaded_artifact_builds_no_tables(builds, tmp_path):
    bk = make_bipartite_product(cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR)
    want = GroundTruthOracle(bk)
    art = save_oracle(want, tmp_path / "art")
    built = len(builds())  # packing reads the tables
    got = load_oracle(art)
    ps, qs = np.indices((bk.n, bk.n)).reshape(2, -1)
    assert np.array_equal(
        got.squares_at_edges(ps, qs, on_invalid="mask"),
        want.squares_at_edges(ps, qs, on_invalid="mask"),
    )
    assert np.array_equal(got.chain.vertex_squares(ps[: bk.n]), want.chain.vertex_squares(ps[: bk.n]))
    assert len(builds()) == built
