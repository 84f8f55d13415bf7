"""PartitionPlan properties: every plan is a complete, non-overlapping,
contiguous cover of its index space with exact work accounting.

Property (a) of the extreme-scale fleet: for any drawn chain, shard
count, and row strategy, the plan's ranges tile ``[0, n)`` exactly --
no product row is lost or double-generated, which is what makes the
shard-union identities (test_scale_properties) even possible.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.generators.classic import cycle_graph, star_graph
from repro.generators.scale_free import preferential_attachment
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
