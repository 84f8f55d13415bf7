"""The numpy batch primitives behind every factor edge lookup.

An open-addressing hash table over a factor's stored entries
(``key = row · n + col``): :func:`build_edge_table` builds it at load
factor <= 1/4 with Fibonacci hashing and linear probing, and
:func:`probe_edge_table` answers a whole batch of membership/value
queries with ~1 gather per query.  The chain engine
(:meth:`~repro.kronecker.multifactor.KroneckerChain.edge_squares`)
keeps one such table of ``W3`` values per factor.
"""

from __future__ import annotations

import numpy as np

__all__ = ["table_bits", "build_edge_table", "probe_edge_table"]

#: Cache-blocked batch evaluation: the chain's vertex and edge queries
#: run in chunks of this many elements so every temporary stays
#: L2-resident -- intermediate passes cost cache bandwidth, not DRAM
#: round-trips.
_BATCH_CHUNK = 16384

#: Fibonacci multiplicative hashing (Knuth): ``⌊2^64 / φ⌋``, odd.
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


# ---------------------------------------------------------------------------
# Open-addressing edge table
# ---------------------------------------------------------------------------


def table_bits(n_keys: int) -> tuple[int, int]:
    """``(size, shift)`` of the probe table for ``n_keys`` entries: the
    smallest power of two (at least 8) holding them at load factor
    <= 1/4, and the hash shift ``64 - log2(size)``."""
    bits = max(3, int(np.ceil(np.log2(max(4 * n_keys, 8)))))
    return 1 << bits, 64 - bits


def _hash_slots(keys: np.ndarray, shift: int) -> np.ndarray:
    """Table slot per key for a power-of-two table of ``2^(64-shift)``."""
    return ((keys.astype(np.uint64) * _HASH_MULT) >> np.uint64(shift)).astype(np.int64)


def build_edge_table(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Open-addressing hash table ``(table_keys, table_vals, shift)``
    over unique non-negative int64 keys: load factor <= 1/4, Fibonacci
    hashing, linear probing, ``-1`` marks an empty slot.

    Insertion runs in vectorized rounds: each round places the first
    pending key per free slot, the rest advance one slot.
    """
    size, shift = table_bits(keys.size)
    table_keys = np.full(size, -1, dtype=np.int64)
    table_vals = np.zeros(size, dtype=np.int64)
    pend_k, pend_v = keys, vals
    pend_p = _hash_slots(pend_k, shift)
    mask = size - 1
    while pend_k.size:
        free = table_keys[pend_p] == -1
        slots = pend_p[free]
        _, first = np.unique(slots, return_index=True)
        writers = np.flatnonzero(free)[first]
        table_keys[pend_p[writers]] = pend_k[writers]
        table_vals[pend_p[writers]] = pend_v[writers]
        placed = np.zeros(pend_k.size, dtype=bool)
        placed[writers] = True
        keep = ~placed
        pend_k, pend_v = pend_k[keep], pend_v[keep]
        pend_p = (pend_p[keep] + 1) & mask
    return table_keys, table_vals, shift


def probe_edge_table(
    table_keys: np.ndarray, table_vals: np.ndarray, shift: int, query_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(found, vals)`` per query key of a :func:`build_edge_table`
    table; misses report ``vals = 0``.

    One hash gather answers most queries; collision survivors advance
    slot-by-slot on a shrinking pending subset.
    """
    mask = table_keys.size - 1
    pos = _hash_slots(query_keys, shift)
    # ``pos`` is masked to the table size by construction, so the
    # gathers can skip numpy's bounds checking (mode="clip").
    slot_keys = np.take(table_keys, pos, mode="clip")
    pending = np.flatnonzero((slot_keys != query_keys) & (slot_keys != -1))
    while pending.size:
        nxt = (pos[pending] + 1) & mask
        pos[pending] = nxt
        fk = table_keys[nxt]
        slot_keys[pending] = fk
        pending = pending[(fk != query_keys[pending]) & (fk != -1)]
    found = slot_keys == query_keys
    vals = np.take(table_vals, pos, mode="clip")
    vals *= found  # zero the misses without a full np.where pass
    return found, vals
