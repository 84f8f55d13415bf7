"""Process-parallel shard generation.

The paper's conclusion (§V) plans "a distributed version of graphBLAS,
including using the ground truth formulas derived here to compute
ground truth values during generation".  This subpackage is the
single-node, multi-process realisation of that plan:

* :mod:`~repro.parallel.partition` -- deterministic work partitioning
  of a chain's product row space: ``degree`` balances shards by the
  exact per-row work ``Π_t d_t(i_t)`` computed from factor degree
  statistics alone; ``rows`` is the naive equal-range baseline.
* :mod:`~repro.parallel.generate` -- parallel shard generation:
  :func:`~repro.parallel.generate.generate_chain_shards` is the one
  shard writer.  Each worker process receives the chain's factor
  tables (cheap -- factors are tiny) and a range of product rows, and
  streams its shard of product edges (optionally with exact per-edge
  ground truth) independently, never materializing an intermediate
  product.
* :mod:`~repro.parallel.edgeio` -- the versioned binary
  ``repro.edges/1`` shard container, the only one: little-endian int64
  blocks, optional compression, and footer checksums compatible with
  the manifest's content checksums.
* :mod:`~repro.parallel.manifest` -- versioned, checksummed shard
  manifests written atomically alongside the shards; the integrity
  record that makes partial failure detectable and resume safe.
* :mod:`~repro.parallel.faults` -- deterministic fault injection and
  the bounded-retry / exponential-backoff executor loop that shard
  generation runs on.

Design notes: work units are coarse (one shard = thousands of edge
blocks) so process spawn and pickling costs amortize; only the tiny
factor tables cross the process boundary; and each shard's content
depends only on its row range, so the parallel path is bit-identical
to the serial one -- which the tests assert.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "PARTITION_STRATEGIES": ".partition",
    "PartitionPlan": ".partition",
    "plan_partition": ".partition",
    "shard_of_rows": ".partition",
    "generate_chain_shards": ".generate",
    "load_shards": ".generate",
    "EDGES_SCHEMA": ".edgeio",
    "EdgeFormatError": ".edgeio",
    "EdgeIntegrityError": ".edgeio",
    "read_edges_file": ".edgeio",
    "read_shard_arrays": ".edgeio",
    "write_edges_file": ".edgeio",
    "FaultInjector": ".faults",
    "FaultInjectedError": ".faults",
    "RetryPolicy": ".faults",
    "RetryBudgetExceeded": ".faults",
    "map_with_retry": ".faults",
    "MANIFEST_NAME": ".manifest",
    "ManifestError": ".manifest",
    "ShardEntry": ".manifest",
    "ShardIntegrityError": ".manifest",
    "ShardManifest": ".manifest",
    "chain_signature": ".manifest",
    "checksum_arrays": ".manifest",
    "load_manifest": ".manifest",
    "shard_file_checksum": ".manifest",
    "validate_manifest": ".manifest",
    "verify_shards": ".manifest",
    "write_manifest": ".manifest",
})
