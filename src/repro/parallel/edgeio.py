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

Writing is one streaming pass: :func:`write_edges_file` takes whole
columns or a stream of column blocks (a generation worker hands it its
row range block by block) and writes each block as it arrives, so a
writer holds one block, never the file.  The content checksum is then
computed by re-reading the file column by column in block-sized chunks
-- a second pass, since the checksum hashes all of one column before
the next while blocks interleave them -- and goes into the footer.
:func:`file_content_checksum` runs the same streamed hash over a
finished file, and :func:`read_edges_file` sizes its columns from the
block headers and decodes each block straight into place.

Two integrity layers, deliberately distinct:

* the **footer checksum** is the manifest-compatible *content* checksum
  (:func:`repro.parallel.manifest.checksum_arrays` over the decoded
  columns, hashed from what landed on disk), the same under every
  codec, so manifests, resume reconciliation, and cross-codec
  comparisons never care how the blocks were compressed;
* **structural framing** (magics, lengths, the footer's presence)
  detects torn files: a writer crash mid-block leaves a file whose
  read raises :class:`EdgeFormatError` before any data is trusted.

Codecs: ``raw`` (0) and ``deflate`` (1, stdlib zlib).  Any other codec
name (on write) or codec id (in a header) raises
:class:`EdgeFormatError`.
"""

from __future__ import annotations

import itertools
import os
import struct
import zlib
from typing import Any, BinaryIO, Iterable, Iterator, Mapping, Optional, Union

import numpy as np

from repro.kronecker.multifactor import STREAM_BLOCK_ENTRIES

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
    "file_content_checksum",
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

CODECS = {"raw": 0, "deflate": 1}
_CODEC_NAMES = {v: k for k, v in CODECS.items()}

#: Entries per frame on disk: the chain stream's own block size, so a
#: shard's streamed blocks and its frames cannot drift apart.  A
#: ground-truth block is 24 bytes an entry, so a writer holds ~1.5 MiB
#: of columns at a time.
DEFAULT_BLOCK_ENTRIES = STREAM_BLOCK_ENTRIES

# Structural sanity bounds (cf. wire.MAX_FRAME_ELEMENTS): a corrupt
# length field must fail fast, not allocate gigabytes.
_MAX_COLUMNS = 64
_MAX_NAMES_BYTES = 4096
_MAX_BLOCK_ENTRIES = 1 << 28
_MAX_CHECKSUM_BYTES = 256

#: One block frame on disk: ``(payload offset, entries, payload bytes)``.
_Frame = tuple[int, int, int]


class EdgeFormatError(ValueError):
    """File is not (or is no longer) a well-formed ``repro.edges/1``."""


class EdgeIntegrityError(EdgeFormatError):
    """Framing is intact but the content checksum does not match."""


def _compress(columns: list[np.ndarray], codec: int) -> bytes:
    """One block's payload: ``columns`` back to back, compressed."""
    if codec == CODECS["deflate"]:
        z = zlib.compressobj(6)
        return b"".join([*(z.compress(c) for c in columns), z.flush()])
    raise EdgeFormatError(f"unknown codec id {codec}")


def _decompress(payload: bytes, codec: int, expected: int) -> bytes:
    if codec == CODECS["raw"]:
        out = payload
    elif codec == CODECS["deflate"]:
        out = zlib.decompress(payload)
    else:
        raise EdgeFormatError(f"unknown codec id {codec}")
    if len(out) != expected:
        raise EdgeFormatError(
            f"block payload decoded to {len(out)} bytes, expected {expected}"
        )
    return out


def _content_checksum(arrays: Mapping[str, Any]) -> str:
    # Deferred import: manifest imports this module to re-checksum shards.
    from repro.parallel.manifest import checksum_arrays

    return checksum_arrays(arrays)


def _validated_columns(
    arrays: Mapping[str, np.ndarray], names: Optional[tuple[str, ...]] = None
) -> dict[str, np.ndarray]:
    """One block's columns as int64 arrays in name order; ``names`` are
    the file's columns, which every block after the first must match."""
    if not arrays:
        raise EdgeFormatError("edges file needs at least one column")
    if len(arrays) > _MAX_COLUMNS:
        raise EdgeFormatError(f"too many columns ({len(arrays)} > {_MAX_COLUMNS})")
    if names is not None and tuple(sorted(arrays)) != names:
        raise EdgeFormatError(
            f"block columns {sorted(arrays)} differ from the file's {list(names)}"
        )
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


def _column_chunks(
    fh: BinaryIO, codec_id: int, n_columns: int, frames: list[_Frame], k: int
) -> Iterator[Union[bytes, memoryview]]:
    """Column ``k``'s bytes as stored in ``frames``, one block at a time."""
    for offset, count, length in frames:
        width = 8 * count
        if codec_id == CODECS["raw"]:
            fh.seek(offset + k * width)
            yield _read_exact(fh, width, "block payload")
        else:
            fh.seek(offset)
            raw = _decompress(
                _read_exact(fh, length, "block payload"), codec_id, width * n_columns
            )
            yield memoryview(raw)[k * width : (k + 1) * width]


def _frames_checksum(
    fh: BinaryIO, names: list[str], codec_id: int, frames: list[_Frame]
) -> str:
    """The content checksum of what ``frames`` hold on disk.

    :func:`~repro.parallel.manifest.checksum_arrays` hashes all of one
    column before the next, and blocks interleave the columns, so each
    column is its own pass over the blocks.
    """
    total = sum(count for _, count, _ in frames)
    return _content_checksum({
        name: (total, _column_chunks(fh, codec_id, len(names), frames, k))
        for k, name in enumerate(names)
    })


def write_edges_file(
    path: PathLike,
    arrays: Union[Mapping[str, np.ndarray], Iterable[Mapping[str, np.ndarray]]],
    *,
    block_entries: int = DEFAULT_BLOCK_ENTRIES,
    codec: str = "raw",
) -> str:
    """Write equal-length int64 columns to ``path`` as ``repro.edges/1``.

    ``arrays`` is either a mapping of whole columns or an iterable of
    column blocks (mappings with the same names), such as a shard's row
    range streamed by :func:`~repro.parallel.partition.shard_of_rows`.
    Either way the columns are cut into blocks of at most
    ``block_entries`` entries, and each block is written as it arrives
    and then dropped: a raw block goes straight from its column buffers
    to the file.  The first block names the columns; an empty one
    writes no block frame, so a stream of one empty block is an empty
    file with a valid header and footer.

    Returns the manifest-compatible ``sha256:`` content checksum, which
    the footer also holds.  It is computed after the last block by
    re-reading the file one column block at a time, so it covers what
    landed on disk and memory stays ``O(block)`` for any file size.  A
    crash mid-write leaves a structurally invalid file (no footer),
    never a silently short one.
    """
    if codec not in CODECS:
        raise EdgeFormatError(f"unknown codec {codec!r} (choose from {sorted(CODECS)})")
    if block_entries <= 0:
        raise EdgeFormatError(f"block_entries must be positive, got {block_entries}")
    codec_id = CODECS[codec]
    stream = iter((arrays,) if isinstance(arrays, Mapping) else arrays)
    first = _validated_columns(next(stream, {}))
    names = tuple(first)
    blob = ",".join(names).encode("utf-8")
    if len(blob) > _MAX_NAMES_BYTES:
        raise EdgeFormatError("column name blob too large")
    blocks = itertools.chain([first], (_validated_columns(b, names) for b in stream))
    del first  # the chain drops it once written
    frames: list[_Frame] = []
    with open(path, "w+b") as fh:
        fh.write(_HEADER.pack(FILE_MAGIC, EDGES_VERSION, codec_id, len(names), len(blob), 0))
        fh.write(blob)
        pos = HEADER_SIZE + len(blob)
        for cols in blocks:
            size = cols[names[0]].size
            for s0 in range(0, size, block_entries):
                s1 = min(s0 + block_entries, size)
                columns = [cols[name][s0:s1] for name in names]
                if codec_id == CODECS["raw"]:
                    payload: list = columns  # straight from the column buffers
                else:
                    payload = [_compress(columns, codec_id)]
                length = sum(memoryview(buf).nbytes for buf in payload)
                fh.write(_HEADER.pack(BLOCK_MAGIC, EDGES_VERSION, codec_id, 0, s1 - s0, length))
                for buf in payload:
                    fh.write(buf)
                frames.append((pos + HEADER_SIZE, s1 - s0, length))
                pos += HEADER_SIZE + length
        fh.flush()
        checksum = _frames_checksum(fh, list(names), codec_id, frames)
        digest = checksum.encode("ascii")
        fh.seek(pos)
        fh.write(_HEADER.pack(FOOTER_MAGIC, EDGES_VERSION, 0, 0, len(frames), len(digest)))
        fh.write(digest)
        fh.write(struct.pack("<Q", sum(count for _, count, _ in frames)))
    return checksum


def _read_exact(fh: BinaryIO, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise EdgeFormatError(
            f"truncated edges file: expected {count} bytes of {what}, got {len(data)}"
        )
    return data


def _read_layout(fh: BinaryIO, path: PathLike) -> tuple[list[str], int, list[_Frame], str]:
    """Check a file's framing without decoding a payload.

    Reads the header, every block header (seeking over the payloads)
    and the footer; returns ``(names, codec_id, frames, recorded
    checksum)``.  Every framing problem raises :class:`EdgeFormatError`.
    """
    size = os.fstat(fh.fileno()).st_size
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
    if len(set(names)) != n_columns:
        raise EdgeFormatError(
            f"{path}: header promises {n_columns} columns, names blob has {len(set(names))}"
        )
    frames: list[_Frame] = []
    entries = 0
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
        offset = fh.tell()
        if offset + length > size:
            raise EdgeFormatError(
                f"truncated edges file: expected {length} bytes of block payload, "
                f"got {size - offset}"
            )
        expected = count * 8 * n_columns
        if codec_id == CODECS["raw"] and length != expected:
            raise EdgeFormatError(
                f"block payload decoded to {length} bytes, expected {expected}"
            )
        fh.seek(length, os.SEEK_CUR)
        frames.append((offset, count, length))
        entries += count
    if checksum_len > _MAX_CHECKSUM_BYTES:
        raise EdgeFormatError(f"{path}: implausible footer checksum length")
    recorded = _read_exact(fh, checksum_len, "footer checksum").decode("ascii")
    (footer_entries,) = struct.unpack("<Q", _read_exact(fh, 8, "footer entry count"))
    if fh.read(1):
        raise EdgeFormatError(f"{path}: trailing bytes after footer")
    if footer_blocks != len(frames) or footer_entries != entries:
        raise EdgeFormatError(
            f"{path}: footer records {footer_blocks} blocks/{footer_entries} entries, "
            f"read {len(frames)}/{entries}"
        )
    return names, codec_id, frames, recorded


def read_edges_file(path: PathLike, verify: bool = True) -> dict[str, np.ndarray]:
    """Read a ``repro.edges/1`` file back into ``{name: int64 array}``.

    The framing is checked first (block headers only), which sizes the
    columns; each block is then decoded straight into its slice of
    them, so the peak is one shard plus one block.  With ``verify`` (the
    default) the arrays are re-hashed and compared against the footer
    checksum (:class:`EdgeIntegrityError` on mismatch); framing
    problems -- truncation, bad magic, length mismatches -- raise
    :class:`EdgeFormatError` either way.
    """
    with open(path, "rb") as fh:
        names, codec_id, frames, recorded = _read_layout(fh, path)
        total = sum(count for _, count, _ in frames)
        arrays = {name: np.empty(total, dtype="<i8") for name in names}
        s0 = 0
        for offset, count, length in frames:
            fh.seek(offset)
            if codec_id == CODECS["raw"]:
                for name in names:
                    view = memoryview(arrays[name][s0 : s0 + count]).cast("B")
                    if fh.readinto(view) != view.nbytes:
                        raise EdgeFormatError(f"{path}: truncated block payload")
            else:
                raw = _decompress(
                    _read_exact(fh, length, "block payload"), codec_id, count * 8 * len(names)
                )
                for k, name in enumerate(names):
                    arrays[name][s0 : s0 + count] = np.frombuffer(
                        raw, dtype="<i8", count=count, offset=k * count * 8
                    )
            s0 += count
    arrays = {name: a.astype(np.int64, copy=False) for name, a in arrays.items()}
    if verify:
        actual = _content_checksum(arrays)
        if actual != recorded:
            raise EdgeIntegrityError(
                f"{path}: content checksum {actual} != footer {recorded}"
            )
    return arrays


def file_content_checksum(path: PathLike) -> str:
    """Recompute a ``repro.edges/1`` file's content checksum from disk.

    Checks the framing like :func:`read_edges_file`, then hashes the
    columns one block at a time, never holding the file's arrays.  Any
    other file (an old ``.npz`` shard included) raises
    :class:`EdgeFormatError`.
    """
    with open(path, "rb") as fh:
        names, codec_id, frames, _ = _read_layout(fh, path)
        return _frames_checksum(fh, names, codec_id, frames)


#: The read path behind :func:`repro.parallel.generate.load_shards` and
#: manifest re-checksumming.
read_shard_arrays = read_edges_file
