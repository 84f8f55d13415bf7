"""Versioned, checksummed on-disk oracle artifacts (schema ``repro.serve/3``).

An artifact is a directory holding two files:

* ``oracle.npz`` -- every array the oracle needs: the chain tables of
  each of its ``k`` factors (prefixes ``f0_`` … ``f{k-1}_``: CSR
  ``indptr`` and ``indices``, the vertex vectors ``d``, ``w2``, ``cw4``
  and the edge-aligned ``w3``;
  :class:`~repro.kronecker.multifactor.ChainFactor`).
* ``artifact.json`` -- the sidecar: schema tag, product shape, the
  list of factor shapes, and a ``sha256:`` **content checksum** over
  the arrays (name, dtype, shape, raw bytes -- the
  :func:`repro.parallel.manifest.checksum_arrays` convention, so zip
  container timestamps never matter).

Both files are written atomically (temp name + ``os.replace``), so a
crash mid-``pack`` never leaves a torn artifact.  :func:`load_oracle`
verifies the schema tag, the checksum and that the stored tables fit
together, then wraps them in a
:class:`~repro.kronecker.multifactor.KroneckerChain` -- nothing is
recomputed, so a server boots in O(artifact size) and answers are
bit-identical to the oracle that was saved (asserted in tests/serve and
in ``benchmarks/bench_serve.py``).

**Zero-copy serving.**  The npz container is written *uncompressed*
(``np.savez``), so every member ``.npy`` sits contiguously in the file
and ``load_oracle(..., mmap=True)`` hands back ``np.memmap`` views
instead of materialized copies: the factor tables stay
page-cache-backed, read-only, and **shared** across every process that
maps the same artifact -- the substrate of the pre-fork server
(:mod:`repro.serve.prefork`), where N workers serve one mapped oracle
with flat per-worker memory.  An artifact of another schema (``/1``
stored coefficient-engine statistics, ``/2`` the 2-factor ``m_``/``b_``
layout) or with a compressed member is refused with an
:class:`ArtifactError` that says to repack it with ``repro pack``.
"""

from __future__ import annotations

import json
import os
import struct
import zipfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Union

import numpy as np

from repro.kronecker.multifactor import ChainFactor, KroneckerChain
from repro.kronecker.oracle import GroundTruthOracle
from repro.obs import get_tracer
from repro.parallel.manifest import checksum_arrays

__all__ = [
    "ARTIFACT_SCHEMA",
    "ORACLE_FILE",
    "SIDECAR_FILE",
    "ArtifactError",
    "ArtifactIntegrityError",
    "oracle_arrays",
    "save_oracle",
    "load_oracle",
    "artifact_info",
]

PathLike = Union[str, os.PathLike]

#: Schema tag gating artifact evolution; bump on incompatible layout changes.
ARTIFACT_SCHEMA = "repro.serve/3"
ORACLE_FILE = "oracle.npz"
SIDECAR_FILE = "artifact.json"

#: The chain tables stored per factor, in :class:`ChainFactor` field order.
_FACTOR_TABLES = ("indptr", "indices", "d", "w2", "cw4", "w3")
_REPACK = "repack it with `repro pack`"


class ArtifactError(ValueError):
    """Artifact is missing, malformed, or from an unsupported schema."""


class ArtifactIntegrityError(ArtifactError):
    """Artifact content disagrees with its recorded checksum."""


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def oracle_arrays(oracle: GroundTruthOracle) -> dict[str, np.ndarray]:
    """Every array :func:`save_oracle` persists, keyed by artifact name:
    the chain tables of factor ``t`` under the prefix ``f{t}_``.  The
    checksum in the sidecar is
    :func:`~repro.parallel.manifest.checksum_arrays` over exactly this
    mapping.
    """
    return {
        f"f{t}_{table}": np.asarray(getattr(factor, table))
        for t, factor in enumerate(oracle.chain.factors)
        for table in _FACTOR_TABLES
    }


def _factor_from(arrays: dict[str, np.ndarray], prefix: str, n: int, verify: bool) -> ChainFactor:
    """One factor's stored tables, checked to fit together."""
    try:
        tables = {table: arrays[f"{prefix}_{table}"] for table in _FACTOR_TABLES}
    except KeyError as exc:
        raise ArtifactError(f"artifact is missing factor array {exc.args[0]}") from exc
    indptr, indices = tables["indptr"], tables["indices"]
    nnz = int(indptr[-1]) if indptr.shape == (n + 1,) else -1
    shapes = [tables[v].shape == (n,) for v in ("d", "w2", "cw4")]
    if nnz < 0 or indices.shape != (nnz,) or tables["w3"].shape != (nnz,) or not all(shapes):
        raise ArtifactError(
            f"artifact factor {prefix} does not fit a {n}-vertex factor: "
            + ", ".join(f"{t} {tables[t].shape}" for t in _FACTOR_TABLES)
        )
    if verify and not np.array_equal(tables["d"], np.diff(indptr)):
        raise ArtifactIntegrityError(
            f"artifact factor {prefix}: stored degrees disagree with its CSR rows "
            "(corrupt or hand-edited artifact)"
        )
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return ChainFactor(n=n, nnz=nnz, has_loops=bool(np.any(rows == indices)), **tables)


def save_oracle(oracle: GroundTruthOracle, out_dir: PathLike) -> Path:
    """Persist ``oracle`` as a checksummed artifact directory.

    Writes ``oracle.npz`` and the ``artifact.json`` sidecar, each via a
    temp name + ``os.replace`` so readers never observe a torn file.
    Returns the artifact directory path.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    arrays = oracle_arrays(oracle)
    with get_tracer().span("serve.pack", n=oracle.n, m=oracle.m):
        npz_path = out_dir / ORACLE_FILE
        tmp = npz_path.with_name(npz_path.name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                # Uncompressed on purpose: stored zip members are the
                # raw .npy bytes at a fixed offset, which is what lets
                # load_oracle(mmap=True) map them zero-copy.
                np.savez(fh, **arrays)
            os.replace(tmp, npz_path)
        finally:
            tmp.unlink(missing_ok=True)
        sidecar = {
            "schema": ARTIFACT_SCHEMA,
            "created_at": _utcnow(),
            "storage": "npz-stored",
            "checksum": checksum_arrays(arrays),
            "product": {"n": int(oracle.n), "m": int(oracle.m)},
            "factors": [{"n": int(f.n), "nnz": int(f.nnz)} for f in oracle.chain.factors],
            "arrays": sorted(arrays),
            "oracle_bytes": int(npz_path.stat().st_size),
        }
        sidecar_path = out_dir / SIDECAR_FILE
        tmp = sidecar_path.with_name(sidecar_path.name + ".tmp")
        tmp.write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
        os.replace(tmp, sidecar_path)
    return out_dir


def artifact_info(path: PathLike) -> dict[str, Any]:
    """Load and schema-check an artifact's JSON sidecar."""
    path = Path(path)
    sidecar_path = path / SIDECAR_FILE if path.is_dir() else path
    try:
        info = json.loads(sidecar_path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ArtifactError(f"no oracle artifact at {path} (missing {SIDECAR_FILE})") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"artifact sidecar {sidecar_path} is not valid JSON: {exc}") from exc
    schema = info.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise ArtifactError(
            f"unsupported artifact schema {schema!r} (this build reads "
            f"{ARTIFACT_SCHEMA!r}); {_REPACK}"
        )
    return info


_ZIP_LOCAL_HEADER = struct.Struct("<4s5H3I2H")  # fixed 30-byte local file header


def _npz_member_offsets(npz_path: Path) -> dict[str, tuple[int, int, bool]]:
    """Per-member ``(data_offset, data_size, stored)`` for an npz file.

    ``data_offset`` addresses the first byte of the member's ``.npy``
    stream inside the container (local header and filename skipped);
    ``stored`` is False for compressed members, which cannot be
    mapped.
    """
    out: dict[str, tuple[int, int, bool]] = {}
    with zipfile.ZipFile(npz_path) as zf, open(npz_path, "rb") as fh:
        for info in zf.infolist():
            fh.seek(info.header_offset)
            raw = fh.read(_ZIP_LOCAL_HEADER.size)
            if len(raw) != _ZIP_LOCAL_HEADER.size:
                raise ArtifactError(f"artifact {npz_path} has a truncated zip header")
            fields = _ZIP_LOCAL_HEADER.unpack(raw)
            name_len, extra_len = fields[-2], fields[-1]
            data_off = info.header_offset + _ZIP_LOCAL_HEADER.size + name_len + extra_len
            key = info.filename.removesuffix(".npy")
            out[key] = (data_off, info.compress_size, info.compress_type == zipfile.ZIP_STORED)
    return out


def _mmap_npz_arrays(
    npz_path: Path, members: dict[str, tuple[int, int, bool]]
) -> dict[str, np.ndarray]:
    """Map every (stored) npz member as a read-only ``np.memmap``.

    Nothing is copied: each returned array is a view of the page cache
    over the artifact file, so N processes mapping the same artifact
    share one physical copy.
    """
    arrays: dict[str, np.ndarray] = {}
    with open(npz_path, "rb") as fh:
        for key, (offset, _, _) in members.items():
            fh.seek(offset)
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
            else:
                raise ArtifactError(
                    f"artifact member {key} uses unsupported npy format {version}"
                )
            if fortran:  # pragma: no cover - savez never writes Fortran order
                raise ArtifactError(f"artifact member {key} is Fortran-ordered")
            arrays[key] = np.memmap(npz_path, dtype=dtype, mode="r", offset=fh.tell(), shape=shape)
    return arrays


def load_oracle(
    path: PathLike,
    verify: bool = True,
    *,
    mmap: bool = False,
) -> GroundTruthOracle:
    """Rebuild a :class:`GroundTruthOracle` from an artifact directory.

    Verifies the sidecar's schema tag, that every stored table fits
    its factor (shapes, ``w3`` per stored entry) and, unless
    ``verify=False``, the content checksum and the stored degrees
    against the CSR rows, raising :class:`ArtifactIntegrityError` on any
    disagreement -- a tampered or bit-rotted artifact never serves.  A
    compressed member cannot be mapped and is refused with
    :class:`ArtifactError`.

    ``mmap=True`` maps the arrays read-only straight out of the npz
    container instead of materializing copies: the checksum is verified
    against the file bytes (read through the mapping, nothing retained),
    and the oracle's chain tables stay backed by the page cache -- so
    forked serving workers share one physical artifact and per-worker
    RSS stays flat (see :mod:`repro.serve.prefork` and
    ``tests/serve/test_prefork.py``).
    """
    path = Path(path)
    info = artifact_info(path)
    npz_path = path / ORACLE_FILE
    if not npz_path.exists():
        raise ArtifactError(f"artifact {path} is missing {ORACLE_FILE}")
    with get_tracer().span("serve.load_oracle", artifact=str(path), mmap=mmap):
        try:
            members = _npz_member_offsets(npz_path)
            compressed = sorted(key for key, (_, _, stored) in members.items() if not stored)
            if not compressed:
                if mmap:
                    arrays = _mmap_npz_arrays(npz_path, members)
                else:
                    with np.load(npz_path) as data:
                        arrays = {key: data[key] for key in data.files}
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            # BadZipFile covers zlib/CRC failure on a bit-rotted npz, which
            # numpy surfaces before our content checksum can run.
            raise ArtifactError(f"artifact {npz_path} is unreadable: {exc}") from exc
        if compressed:
            raise ArtifactError(
                f"artifact {npz_path} has compressed member(s) {', '.join(compressed)}, "
                f"which cannot be mapped; {_REPACK}"
            )
        if verify:
            actual = checksum_arrays(arrays)
            if actual != info.get("checksum"):
                raise ArtifactIntegrityError(
                    f"artifact checksum mismatch in {path}: arrays hash to {actual}, "
                    f"sidecar records {info.get('checksum')!r}"
                )
        try:
            shapes = [int(factor["n"]) for factor in info["factors"]]
        except KeyError as exc:
            raise ArtifactError(f"artifact sidecar lacks {exc.args[0]!r}") from exc
        chain = KroneckerChain(
            [_factor_from(arrays, f"f{t}", n, verify) for t, n in enumerate(shapes)]
        )
        return GroundTruthOracle(chain)
