"""An independent referee for generated shard sets.

The union of a run's shards must be exactly the directed entries of the
materialized product, each once, and every ``squares`` value must equal
the per-edge 4-cycle count of :mod:`repro.refcheck.brute`, which
enumerates cycles on the materialized graph and shares no algebra with
the chain generator.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.refcheck import brute

__all__ = ["kron_graph", "assert_union_is_product"]


def kron_graph(factors: Sequence[Graph]) -> Graph:
    """The product ``X₁ ⊗ X₂ ⊗ … ⊗ X_k`` materialized by ``scipy.sparse.kron``."""
    product = factors[0].adj
    for factor in factors[1:]:
        product = sp.kron(product, factor.adj, format="csr")
    return Graph(sp.csr_array(product))


def assert_union_is_product(data: Mapping[str, np.ndarray], product: Graph) -> None:
    """Shard union == the product's entries; ``squares`` == brute force."""
    coo = product.adj.tocoo()
    want = sorted(zip(coo.row.tolist(), coo.col.tolist()))
    got = sorted(zip(data["p"].tolist(), data["q"].tolist()))
    assert got == want
    if "squares" not in data:
        return
    dia = brute.squares_at_edges(product)
    for p, q, val in zip(data["p"].tolist(), data["q"].tolist(), data["squares"].tolist()):
        assert val == dia[(min(p, q), max(p, q))], (p, q)
