"""The ``repro.edges/1`` binary shard format: int64 edge blocks on disk.

Every shard :func:`repro.parallel.generate.generate_chain_shards` writes
is one of these files: a 16-byte framed header, a run of little-endian
int64 column blocks, and a checksummed footer.  It is the only shard
container; an ``.npz`` shard from an older run is refused with a typed
error that says to regenerate it.

Framing reuses the :mod:`repro.serve.wire` conventions -- one
``<2sBBB3xII`` 16-byte header struct everywhere, magics starting with
``0x9F`` (outside printable ASCII, disjoint from both HTTP method
initials and zip's ``PK``), explicit lengths so a reader never scans.

File layout (all integers little-endian)::

    header   magic=\\x9fE version codec n_columns pad(3) names_len reserved
    names    UTF-8 comma-joined column names, sorted (names_len bytes)
    block*   magic=\\x9fB version codec 0 pad(3) n_entries payload_len
             payload: per-column int64 runs in name order, optionally
             compressed per block (codec)
    footer   magic=\\x9fF version 0 0 pad(3) n_blocks checksum_len
             checksum ("sha256:..." ASCII) + total_entries as u64

Two integrity layers, deliberately distinct:

* the **footer checksum** is the manifest-compatible *content* checksum
  (:func:`repro.parallel.manifest.checksum_arrays` over the decoded
  arrays), the same under every codec, so manifests, resume
  reconciliation, and cross-codec comparisons never care how the
  blocks were compressed;
* **structural framing** (magics, lengths, the footer's presence)
  detects torn files: a writer crash mid-block leaves a file whose
  read raises :class:`EdgeFormatError` before any data is trusted.

Codecs: ``raw`` (0) and ``deflate`` (1, stdlib zlib) are always
available; ``zstd`` (2) is recognised but gated on the optional
``zstandard`` package -- reading or writing it without the package
raises a typed error instead of importing lazily at a surprise moment.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import BinaryIO, Mapping, Union

import numpy as np

__all__ = [
    "EDGES_SCHEMA",
    "EDGES_VERSION",
    "FILE_MAGIC",
    "BLOCK_MAGIC",
    "FOOTER_MAGIC",
    "CODECS",
    "DEFAULT_BLOCK_ENTRIES",
    "EdgeFormatError",
    "EdgeIntegrityError",
    "write_edges_file",
    "read_edges_file",
    "read_shard_arrays",
]

PathLike = Union[str, os.PathLike]

EDGES_SCHEMA = "repro.edges/1"
EDGES_VERSION = 1

#: One header struct for file/block/footer frames, as in serve/wire.py:
#: ``magic(2) version(1) a(1) b(1) pad(3) u32 u32``.
_HEADER = struct.Struct("<2sBBB3xII")
HEADER_SIZE = _HEADER.size  # 16

FILE_MAGIC = b"\x9fE"
BLOCK_MAGIC = b"\x9fB"
FOOTER_MAGIC = b"\x9fF"
_NPZ_MAGIC = b"PK"  # zip container: an .npz shard from an older run

CODECS = {"raw": 0, "deflate": 1, "zstd": 2}
_CODEC_NAMES = {v: k for k, v in CODECS.items()}

DEFAULT_BLOCK_ENTRIES = 1 << 20

# Structural sanity bounds (cf. wire.MAX_FRAME_ELEMENTS): a corrupt
# length field must fail fast, not allocate gigabytes.
_MAX_COLUMNS = 64
_MAX_NAMES_BYTES = 4096
_MAX_BLOCK_ENTRIES = 1 << 28
_MAX_CHECKSUM_BYTES = 256


class EdgeFormatError(ValueError):
    """File is not (or is no longer) a well-formed ``repro.edges/1``."""


class EdgeIntegrityError(EdgeFormatError):
    """Framing is intact but the content checksum does not match."""


def _zstd():
    try:
        import zstandard  # type: ignore[import-not-found]
    except ImportError as exc:  # pragma: no cover - env-dependent
        raise EdgeFormatError(
            "codec 'zstd' needs the optional zstandard package (not installed); "
            "use 'raw' or 'deflate'"
        ) from exc
    return zstandard


def _compress(payload: bytes, codec: int) -> bytes:
    if codec == CODECS["raw"]:
        return payload
    if codec == CODECS["deflate"]:
        return zlib.compress(payload, 6)
    if codec == CODECS["zstd"]:  # pragma: no cover - optional dependency
        return _zstd().ZstdCompressor().compress(payload)
    raise EdgeFormatError(f"unknown codec id {codec}")


def _decompress(payload: bytes, codec: int, expected: int) -> bytes:
    if codec == CODECS["raw"]:
        out = payload
    elif codec == CODECS["deflate"]:
        out = zlib.decompress(payload)
    elif codec == CODECS["zstd"]:  # pragma: no cover - optional dependency
        out = _zstd().ZstdDecompressor().decompress(payload, max_output_size=expected)
    else:
        raise EdgeFormatError(f"unknown codec id {codec}")
    if len(out) != expected:
        raise EdgeFormatError(
            f"block payload decoded to {len(out)} bytes, expected {expected}"
        )
    return out


def _content_checksum(arrays: Mapping[str, np.ndarray]) -> str:
    # Deferred import: manifest imports this module to re-checksum shards.
    from repro.parallel.manifest import checksum_arrays

    return checksum_arrays(arrays)


def _validated_columns(arrays: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    if not arrays:
        raise EdgeFormatError("edges file needs at least one column")
    if len(arrays) > _MAX_COLUMNS:
        raise EdgeFormatError(f"too many columns ({len(arrays)} > {_MAX_COLUMNS})")
    out: dict[str, np.ndarray] = {}
    length = None
    for name in sorted(arrays):
        if "," in name or not name:
            raise EdgeFormatError(f"invalid column name {name!r}")
        a = np.ascontiguousarray(arrays[name])
        if a.ndim != 1 or not np.issubdtype(a.dtype, np.integer):
            raise EdgeFormatError(
                f"column {name!r} must be a 1-D integer array, got "
                f"shape {a.shape} dtype {a.dtype}"
            )
        a = a.astype(np.int64, copy=False)
        if length is None:
            length = a.size
        elif a.size != length:
            raise EdgeFormatError(
                f"ragged columns: {name!r} has {a.size} entries, expected {length}"
            )
        out[name] = a
    return out


def write_edges_file(
    path: PathLike,
    arrays: Mapping[str, np.ndarray],
    *,
    block_entries: int = DEFAULT_BLOCK_ENTRIES,
    codec: str = "raw",
) -> str:
    """Write ``arrays`` (equal-length int64 columns) as ``repro.edges/1``.

    Returns the manifest-compatible ``sha256:`` content checksum (also
    embedded in the footer).  The file is written in ``block_entries``-
    row blocks so readers stream with bounded memory; a crash mid-write
    leaves a structurally invalid file, never a silently short one.
    """
    if codec not in CODECS:
        raise EdgeFormatError(f"unknown codec {codec!r} (choose from {sorted(CODECS)})")
    if block_entries <= 0:
        raise EdgeFormatError(f"block_entries must be positive, got {block_entries}")
    cols = _validated_columns(arrays)
    checksum = _content_checksum(cols)
    codec_id = CODECS[codec]
    if codec_id == CODECS["zstd"]:
        _zstd()  # fail before creating the file
    names = ",".join(cols).encode("utf-8")
    if len(names) > _MAX_NAMES_BYTES:
        raise EdgeFormatError("column name blob too large")
    total = next(iter(cols.values())).size if cols else 0
    n_blocks = 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FILE_MAGIC, EDGES_VERSION, codec_id, len(cols), len(names), 0))
        fh.write(names)
        for s0 in range(0, total, block_entries):
            s1 = min(s0 + block_entries, total)
            payload = b"".join(cols[name][s0:s1].tobytes() for name in cols)
            encoded = _compress(payload, codec_id)
            fh.write(_HEADER.pack(BLOCK_MAGIC, EDGES_VERSION, codec_id, 0, s1 - s0, len(encoded)))
            fh.write(encoded)
            n_blocks += 1
        digest = checksum.encode("ascii")
        fh.write(_HEADER.pack(FOOTER_MAGIC, EDGES_VERSION, 0, 0, n_blocks, len(digest)))
        fh.write(digest)
        fh.write(struct.pack("<Q", total))
    return checksum


def _read_exact(fh: BinaryIO, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise EdgeFormatError(
            f"truncated edges file: expected {count} bytes of {what}, got {len(data)}"
        )
    return data


def read_edges_file(path: PathLike, verify: bool = True) -> dict[str, np.ndarray]:
    """Read a ``repro.edges/1`` file back into ``{name: int64 array}``.

    With ``verify`` (the default) the decoded arrays are re-hashed and
    compared against the footer checksum
    (:class:`EdgeIntegrityError` on mismatch); framing problems --
    truncation, bad magic, length mismatches -- raise
    :class:`EdgeFormatError` either way.
    """
    with open(path, "rb") as fh:
        magic, version, codec_id, n_columns, names_len, _ = _HEADER.unpack(
            _read_exact(fh, HEADER_SIZE, "file header")
        )
        if magic[:2] == _NPZ_MAGIC:
            raise EdgeFormatError(
                f"{path}: an .npz shard from an older run; shards are "
                "repro.edges/1 only now -- regenerate with `repro shards` "
                "into a fresh output directory"
            )
        if magic != FILE_MAGIC:
            raise EdgeFormatError(
                f"{path}: not a repro.edges file (magic {magic!r})"
            )
        if version != EDGES_VERSION:
            raise EdgeFormatError(
                f"{path}: unsupported edges version {version} (expected {EDGES_VERSION})"
            )
        if codec_id not in _CODEC_NAMES:
            raise EdgeFormatError(f"{path}: unknown codec id {codec_id}")
        if not 1 <= n_columns <= _MAX_COLUMNS or names_len > _MAX_NAMES_BYTES:
            raise EdgeFormatError(f"{path}: implausible header (columns={n_columns})")
        names = _read_exact(fh, names_len, "column names").decode("utf-8").split(",")
        if len(names) != n_columns:
            raise EdgeFormatError(
                f"{path}: header promises {n_columns} columns, names blob has {len(names)}"
            )
        chunks: dict[str, list[np.ndarray]] = {name: [] for name in names}
        entries = 0
        n_blocks = 0
        while True:
            head = _read_exact(fh, HEADER_SIZE, "block header")
            magic, version, block_codec, _flag, count, length = _HEADER.unpack(head)
            if magic == FOOTER_MAGIC:
                footer_blocks, checksum_len = count, length
                break
            if magic != BLOCK_MAGIC:
                raise EdgeFormatError(f"{path}: bad block magic {magic!r}")
            if block_codec != codec_id:
                raise EdgeFormatError(
                    f"{path}: block codec {block_codec} != file codec {codec_id}"
                )
            if count > _MAX_BLOCK_ENTRIES:
                raise EdgeFormatError(f"{path}: implausible block of {count} entries")
            raw = _decompress(
                _read_exact(fh, length, "block payload"), codec_id, count * 8 * n_columns
            )
            for k, name in enumerate(names):
                chunks[name].append(
                    np.frombuffer(raw, dtype="<i8", count=count, offset=k * count * 8)
                )
            entries += count
            n_blocks += 1
        if checksum_len > _MAX_CHECKSUM_BYTES:
            raise EdgeFormatError(f"{path}: implausible footer checksum length")
        recorded = _read_exact(fh, checksum_len, "footer checksum").decode("ascii")
        (footer_entries,) = struct.unpack("<Q", _read_exact(fh, 8, "footer entry count"))
        if fh.read(1):
            raise EdgeFormatError(f"{path}: trailing bytes after footer")
    if footer_blocks != n_blocks or footer_entries != entries:
        raise EdgeFormatError(
            f"{path}: footer records {footer_blocks} blocks/{footer_entries} entries, "
            f"read {n_blocks}/{entries}"
        )
    arrays = {
        name: (
            np.concatenate(parts)
            if parts
            else np.zeros(0, dtype=np.int64)
        ).astype(np.int64, copy=False)
        for name, parts in chunks.items()
    }
    if verify:
        actual = _content_checksum(arrays)
        if actual != recorded:
            raise EdgeIntegrityError(
                f"{path}: content checksum {actual} != footer {recorded}"
            )
    return arrays


#: The read path behind :func:`repro.parallel.generate.load_shards` and
#: manifest re-checksumming.
read_shard_arrays = read_edges_file
