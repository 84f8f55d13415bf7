"""Extreme-scale fleet properties (c) and (d): shard unions against an
independent referee, and per-shard 4-cycle sums against the independent
closed-form fold.

These are the end-to-end guarantees the tier rests on: *how* the
product is sliced and *how* shards are encoded must never change *what*
was generated, and what was generated must be the product itself, with
brute-force-exact ground truth.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.generators.classic import complete_bipartite, cycle_graph, path_graph
from repro.kronecker.assumptions import Assumption, make_bipartite_product
from repro.kronecker.multifactor import KroneckerChain
from repro.parallel.generate import generate_chain_shards, load_shards
from repro.parallel.manifest import verify_shards
from repro.parallel.partition import plan_partition, shard_of_rows
from repro.refcheck.printed import multi_kronecker_global_squares
from tests.shard_referee import assert_union_is_product, kron_graph
from tests.strategies import factor_chains

SETTINGS = settings(max_examples=8, deadline=None)


def entry_triples(data: dict[str, np.ndarray]) -> list[tuple[int, int, int]]:
    return sorted(zip(data["p"].tolist(), data["q"].tolist(), data["squares"].tolist()))


@pytest.fixture(scope="module", params=["i", "ii"])
def bk(request):
    if request.param == "i":
        return make_bipartite_product(
            cycle_graph(5), complete_bipartite(2, 3), Assumption.NON_BIPARTITE_FACTOR
        )
    return make_bipartite_product(
        complete_bipartite(2, 2), path_graph(4), Assumption.SELF_LOOPS_FACTOR
    )


def test_shard_union_is_the_product_with_brute_squares(bk, tmp_path):
    """Property (c): under every codec, the shard union of a 2-factor
    product is the materialized product, with per-entry squares equal
    to brute-force cycle enumeration."""
    chain = bk.chain
    product = bk.materialize()
    for codec in ("raw", "deflate"):
        out = tmp_path / codec
        paths = generate_chain_shards(
            chain, out, n_shards=4, n_workers=1, ground_truth=True, codec=codec
        )
        verify_shards(out)
        assert_union_is_product(load_shards(paths, manifest=out), product)
    assert product.nnz == 2 * bk.m


@given(factors=factor_chains(max_factors=3))
@SETTINGS
def test_chain_shard_squares_sum_to_fold(tmp_path_factory, factors):
    """Property (d): per-shard 4-cycle sums add up to the closed-form
    global count from the *independent* ``combine_stats`` fold (times 8:
    each square is counted once per its 4 edges x 2 directions)."""
    chain = KroneckerChain.from_graphs(factors)
    out = tmp_path_factory.mktemp("chain")
    paths = generate_chain_shards(
        chain, out, n_shards=3, n_workers=1, ground_truth=True
    )
    per_shard = []
    for path in paths:
        data = load_shards([path])
        per_shard.append(int(data["squares"].sum()))
    assert sum(per_shard) == 8 * multi_kronecker_global_squares(factors)


@given(factors=factor_chains(max_factors=3))
@SETTINGS
def test_chain_union_identical_across_row_strategies(tmp_path_factory, factors):
    """Equal-row cuts stream the same entry set as the degree cuts the
    generator writes, and both are the materialized chain product with
    brute-force squares."""
    chain = KroneckerChain.from_graphs(factors)
    out = tmp_path_factory.mktemp("degree")
    written = load_shards(
        generate_chain_shards(chain, out, n_shards=3, n_workers=1, ground_truth=True),
        manifest=out,
    )
    streamed = [
        block
        for start, stop in plan_partition(chain, 3, "rows").bounds
        for block in shard_of_rows(chain, start, stop, attach_ground_truth=True)
    ]
    rows = {
        key: np.concatenate([block[k] for block in streamed])
        for k, key in enumerate(("p", "q", "squares"))
    }
    assert entry_triples(rows) == entry_triples(written)
    assert len(entry_triples(written)) == chain.nnz
    assert_union_is_product(written, kron_graph(factors))
