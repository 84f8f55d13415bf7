"""Shared pytest fixtures.

Fixtures cover the graphs every suite reaches for; heavier shared
objects (the unicode-like factor and a mid-size product) are
session-scoped so the suite builds them once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import (
    complete_bipartite,
    cycle_graph,
    konect_unicode_like,
    path_graph,
    star_graph,
)
from repro.graphs import BipartiteGraph, Graph
from repro.kronecker import Assumption, make_bipartite_product


@pytest.fixture
def triangle() -> Graph:
    return cycle_graph(3)


@pytest.fixture
def p3() -> Graph:
    return path_graph(3)


@pytest.fixture
def p4() -> Graph:
    return path_graph(4)


@pytest.fixture
def c4() -> Graph:
    return cycle_graph(4)


@pytest.fixture
def k33() -> BipartiteGraph:
    return complete_bipartite(3, 3)


@pytest.fixture
def star5() -> Graph:
    return star_graph(5)


@pytest.fixture
def bk_assumption_i():
    """Assumption 1(i) product: C5 (x) P4."""
    return make_bipartite_product(
        cycle_graph(5), path_graph(4), Assumption.NON_BIPARTITE_FACTOR
    )


@pytest.fixture
def bk_assumption_ii():
    """Assumption 1(ii) product: (P4 + I) (x) P5."""
    return make_bipartite_product(
        path_graph(4), path_graph(5), Assumption.SELF_LOOPS_FACTOR
    )


@pytest.fixture(scope="session")
def unicode_like() -> BipartiteGraph:
    """The calibrated synthetic Konect stand-in (session-shared)."""
    return konect_unicode_like()


@pytest.fixture(scope="session")
def unicode_product(unicode_like):
    """The §IV product C = (A + I) (x) A (the handle and its chain only)."""
    return make_bipartite_product(
        unicode_like, unicode_like, Assumption.SELF_LOOPS_FACTOR, require_connected=False
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
