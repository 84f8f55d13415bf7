"""Shared fixtures for the serving-layer suite.

One small product per Assumption-1 regime, its oracle, and the list of
its (undirected) product edges -- every serve test compares served
answers against direct oracle calls on these.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import complete_bipartite, complete_graph, path_graph
from repro.kronecker import Assumption, GroundTruthOracle, make_bipartite_product


@pytest.fixture(scope="session")
def product_i():
    return make_bipartite_product(
        complete_graph(3), complete_bipartite(2, 3), Assumption.NON_BIPARTITE_FACTOR
    )


@pytest.fixture(scope="session")
def product_ii():
    return make_bipartite_product(
        path_graph(3), complete_bipartite(2, 2), Assumption.SELF_LOOPS_FACTOR
    )


@pytest.fixture(scope="session")
def oracle_i(product_i):
    return GroundTruthOracle(product_i)


@pytest.fixture(scope="session")
def oracle_ii(product_ii):
    return GroundTruthOracle(product_ii)


def product_edges(oracle) -> tuple[np.ndarray, np.ndarray]:
    """All (p, q) product edge pairs, as two index arrays."""
    n = oracle.n
    grid = np.indices((n, n)).reshape(2, -1)
    valid = oracle.has_edges(grid[0], grid[1])
    return grid[0][valid], grid[1][valid]


@pytest.fixture(scope="session")
def edges_i(oracle_i):
    return product_edges(oracle_i)
