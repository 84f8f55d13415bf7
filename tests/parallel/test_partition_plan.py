"""PartitionPlan properties: every plan is a complete, non-overlapping,
contiguous cover of its index space with exact work accounting.

Property (a) of the extreme-scale fleet: for any drawn chain, shard
count, and row strategy, the plan's ranges tile ``[0, n)`` exactly --
no product row is lost or double-generated, which is what makes the
shard-union identities (test_scale_properties) even possible.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators.classic import cycle_graph, path_graph, star_graph
from repro.generators.scale_free import preferential_attachment
from repro.graphs.graph import Graph
from repro.kronecker.multifactor import KroneckerChain
from repro.parallel.partition import (
    PARTITION_STRATEGIES,
    plan_partition,
)
from tests.strategies import chain_partitions

SETTINGS = settings(max_examples=30, deadline=None)


@given(pair=chain_partitions())
@SETTINGS
def test_plans_tile_the_row_space(pair):
    """Complete non-overlapping cover: bounds are sorted, contiguous,
    start at 0, end at n, and their widths sum to n."""
    chain, plan = pair
    assert plan.total == chain.n
    assert all(b > a for a, b in plan.bounds)
    if plan.bounds:
        assert plan.bounds[0][0] == 0
        assert plan.bounds[-1][1] == chain.n
        for (_, b_prev), (a_next, _) in zip(plan.bounds[:-1], plan.bounds[1:]):
            assert a_next == b_prev
    assert sum(b - a for a, b in plan.bounds) == chain.n


@given(pair=chain_partitions())
@SETTINGS
def test_work_accounting_is_exact(pair):
    """Per-shard work comes from the closed-form prefix and sums to the
    product's total entry count -- no estimation error."""
    chain, plan = pair
    assert plan.total_work == chain.nnz
    for (a, b), w in zip(plan.bounds, plan.work):
        assert w == chain.row_range_work(a, b) >= 1
    assert plan.imbalance() >= 1.0


def test_degree_beats_rows_on_power_law():
    """The bench-asserted contract in miniature: on a power-law chain
    the degree strategy balances what equal row ranges badly skew."""
    g = preferential_attachment(200, 1, seed=5)
    chain = KroneckerChain.from_graphs([g, g])
    rows = plan_partition(chain, 8, "rows")
    degree = plan_partition(chain, 8, "degree")
    assert degree.imbalance() <= 1.3
    assert rows.imbalance() >= 2.0
    assert rows.total_work == degree.total_work == chain.nnz


def test_invalid_inputs():
    chain = KroneckerChain.from_graphs([cycle_graph(4), star_graph(2)])
    with pytest.raises(ValueError, match="positive"):
        plan_partition(chain, 0, "rows")
    with pytest.raises(ValueError, match="strategy"):
        plan_partition(chain, 2, "zigzag")
    assert set(PARTITION_STRATEGIES) == {"rows", "degree"}


def test_more_shards_than_rows():
    chain = KroneckerChain.from_graphs([cycle_graph(3), star_graph(1)])
    for strategy in ("rows", "degree"):
        plan = plan_partition(chain, chain.n * 3, strategy)
        assert plan.n_shards <= chain.n
        assert sum(b - a for a, b in plan.bounds) == chain.n


@st.composite
def sparse_factors(draw):
    """A 1-3 factor chain whose factors may have isolated vertices, so
    product rows of zero work sit inside the row space."""
    graphs = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 5))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        graphs.append(Graph.from_edges(n, edges))
    return graphs


def referee_degree_plan(graphs, n_shards):
    """The degree plan from the materialized per-row work: ``np.cumsum``
    of the product degrees, cut at the smallest ``p`` at or after the
    last cut with ``W(p) >= T``, or ``p - 1`` when that is closer."""
    row_work = reduce(np.kron, [g.degrees() for g in graphs])
    W = np.concatenate(([0], np.cumsum(row_work))).tolist()
    total = W[-1]
    cuts = [0]
    for j in range(1, n_shards):
        target = (total * j) // n_shards
        p = max(int(np.searchsorted(W, target, side="left")), cuts[-1])
        if p > cuts[-1] and target - W[p - 1] < W[p] - target:
            p -= 1
        cuts.append(p)
    cuts.append(len(row_work))
    pairs = [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]
    return tuple(pairs), tuple(W[b] - W[a] for a, b in pairs)


@given(graphs=sparse_factors(), data=st.data())
@SETTINGS
def test_degree_plan_matches_cumsum_referee(graphs, data):
    """The digit-descent cuts equal a brute search of the materialized
    work prefix, zero-work rows and more shards than rows included."""
    chain = KroneckerChain.from_graphs(graphs)
    n_shards = data.draw(st.integers(1, 3 * chain.n + 2), label="n_shards")
    plan = plan_partition(chain, n_shards, "degree")
    assert (plan.bounds, plan.work) == referee_degree_plan(graphs, n_shards)


@given(graphs=sparse_factors())
@SETTINGS
def test_work_row_inverts_the_work_prefix(graphs):
    chain = KroneckerChain.from_graphs(graphs)
    row_work = reduce(np.kron, [g.degrees() for g in graphs])
    W = np.concatenate(([0], np.cumsum(row_work)))
    for x in range(chain.nnz):
        p = int(np.searchsorted(W, x, side="right")) - 1
        assert chain.work_row(x) == (p, int(W[p]), int(row_work[p]))
    for x in (-1, chain.nnz):
        with pytest.raises(ValueError, match="out of range"):
            chain.work_row(x)


def test_degree_plan_ties_keep_the_later_cut():
    """A quantile at the exact middle of a row's work cuts after that
    row: P₃ (work 1, 2, 1) and P₃ ⊗ P₃ (quantile 8 between W = 6 and 10)."""
    p3 = path_graph(3)
    assert plan_partition(KroneckerChain.from_graphs([p3]), 2).bounds == ((0, 2), (2, 3))
    plan = plan_partition(KroneckerChain.from_graphs([p3, p3]), 2)
    assert (plan.bounds, plan.work) == (((0, 5), (5, 9)), (10, 6))
    assert (plan.bounds, plan.work) == referee_degree_plan([p3, p3], 2)


def test_gen_chain_plan_is_pinned():
    """The end-to-end gen-chain workload's seed-0 plan: four PA(16, 2)
    factors at 8 shards.  Shard bytes depend on these bounds alone."""
    chain = KroneckerChain.from_graphs(
        [preferential_attachment(16, 2, seed=11 + t) for t in range(4)]
    )
    plan = plan_partition(chain, 8, "degree")
    assert plan.bounds == (
        (0, 4883), (4883, 9904), (9904, 14081), (14081, 21379),
        (21379, 29698), (29698, 39092), (39092, 50003), (50003, 65536),
    )
    assert plan.work == (
        1413487, 1415521, 1415012, 1414299, 1415049, 1414008, 1414604, 1414516,
    )


def test_rows_cuts_are_exact_past_float_range():
    """n = 50**12 > 2**63: the equal-row cuts are exact integers and the
    work per shard still sums to nnz."""
    chain = KroneckerChain.from_graphs([cycle_graph(50)] * 12)
    plan = plan_partition(chain, 8, "rows")
    assert plan.bounds == tuple(
        ((chain.n * j) // 8, (chain.n * (j + 1)) // 8) for j in range(8)
    )
    assert plan.work == (chain.nnz // 8,) * 8
    assert plan.total_work == chain.nnz
