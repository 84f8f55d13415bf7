"""Versioned, checksummed on-disk oracle artifacts (schema ``repro.serve/1``).

An artifact is a directory holding two files:

* ``oracle.npz`` -- every array the oracle needs: both factors'
  statistics (``d``, ``w2``, ``s``, ``cw4``, the ``◇`` edge-square
  matrix and the adjacency itself, each as CSR triples), the right
  factor's bipartition mask, and the precomputed vertex-kernel
  coefficient matrices ``L``/``R``.
* ``artifact.json`` -- the sidecar: schema tag, assumption flag,
  product/factor shapes, and a ``sha256:`` **content checksum** over
  the arrays (name, dtype, shape, raw bytes -- the
  :func:`repro.parallel.manifest.checksum_arrays` convention, so zip
  container timestamps never matter).

Both files are written atomically (temp name + ``os.replace``), so a
crash mid-``pack`` never leaves a torn artifact.  :func:`load_oracle`
verifies the checksum and the schema tag before reconstructing a
:class:`~repro.kronecker.oracle.GroundTruthOracle` via
:meth:`~repro.kronecker.oracle.GroundTruthOracle.from_factor_stats` --
no sparse ``A²`` products are recomputed, so a server boots in
O(artifact size) and answers are bit-identical to the oracle that was
saved (asserted in tests/serve and in ``benchmarks/bench_serve.py``).

**Zero-copy serving.**  The npz container is written *uncompressed*
(``np.savez``), so every member ``.npy`` sits contiguously in the file
and ``load_oracle(..., mmap=True)`` can hand back ``np.memmap`` views
instead of materialized copies: the CSR triplets, stats vectors, and
coefficient stacks stay page-cache-backed, read-only, and **shared**
across every process that maps the same artifact -- the substrate of
the pre-fork server (:mod:`repro.serve.prefork`), where N workers serve
one mapped oracle with flat per-worker memory.  The sidecar checksum is
still verified against the mapped bytes before the oracle is built.
Legacy compressed artifacts keep loading (eagerly, with a warning under
``mmap=True``) -- a compressed zip member cannot be mapped.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
import zipfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Union

import numpy as np

from repro.kronecker.assumptions import Assumption
from repro.kronecker.ground_truth import CSRTriple, FactorStats
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
ARTIFACT_SCHEMA = "repro.serve/1"
ORACLE_FILE = "oracle.npz"
SIDECAR_FILE = "artifact.json"

_CSR_PARTS = ("data", "indices", "indptr")
_STATS_VECTORS = ("d", "w2", "s", "cw4")


class ArtifactError(ValueError):
    """Artifact is missing, malformed, or from an unsupported schema."""


class ArtifactIntegrityError(ArtifactError):
    """Artifact content disagrees with its recorded checksum."""


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _csr_arrays(name: str, mat) -> dict[str, np.ndarray]:
    return {
        f"{name}_data": np.asarray(mat.data),
        f"{name}_indices": np.asarray(mat.indices),
        f"{name}_indptr": np.asarray(mat.indptr),
    }


def _csr_from(arrays: Any, name: str, n: int) -> CSRTriple:
    try:
        csr = CSRTriple(*(arrays[f"{name}_{part}"] for part in _CSR_PARTS))
    except KeyError as exc:
        raise ArtifactError(f"artifact is missing CSR array {name}_{exc.args[0]}") from exc
    if csr.indptr.shape != (n + 1,) or csr.indices.shape != csr.data.shape:
        raise ArtifactError(
            f"artifact CSR {name} does not fit a {n}x{n} matrix: indptr "
            f"{csr.indptr.shape}, indices {csr.indices.shape}, data {csr.data.shape}"
        )
    return csr


def _stats_arrays(prefix: str, stats: FactorStats) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {
        f"{prefix}_{field}": getattr(stats, field) for field in _STATS_VECTORS
    }
    arrays.update(_csr_arrays(f"{prefix}_diamond", stats.diamond))
    arrays.update(_csr_arrays(f"{prefix}_adj", stats.adj))
    return arrays


def _stats_from(arrays: Any, prefix: str, n: int) -> FactorStats:
    try:
        vectors = {field: np.asarray(arrays[f"{prefix}_{field}"]) for field in _STATS_VECTORS}
    except KeyError as exc:
        raise ArtifactError(f"artifact is missing factor array {prefix}_{exc.args[0]}") from exc
    return FactorStats(
        n=n,
        diamond=_csr_from(arrays, f"{prefix}_diamond", n),
        adj=_csr_from(arrays, f"{prefix}_adj", n),
        **vectors,
    )


def oracle_arrays(oracle: GroundTruthOracle) -> dict[str, np.ndarray]:
    """Every array :func:`save_oracle` persists, keyed by artifact name.

    Factor statistics for both factors, the right factor's bipartition
    mask, and the vertex-kernel coefficient stacks.  The checksum in the
    sidecar is :func:`~repro.parallel.manifest.checksum_arrays` over
    exactly this mapping.
    """
    stats_a, stats_b, part_b, _ = oracle.artifact_state()
    vertex_l, vertex_r = oracle._term_matrices
    arrays = _stats_arrays("a", stats_a)
    arrays.update(_stats_arrays("b", stats_b))
    arrays["part_b"] = np.asarray(part_b, dtype=bool)
    arrays["vertex_L"] = np.asarray(vertex_l)
    arrays["vertex_R"] = np.asarray(vertex_r)
    return arrays


def save_oracle(oracle: GroundTruthOracle, out_dir: PathLike) -> Path:
    """Persist ``oracle`` as a checksummed artifact directory.

    Writes ``oracle.npz`` and the ``artifact.json`` sidecar, each via a
    temp name + ``os.replace`` so readers never observe a torn file.
    Returns the artifact directory path.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats_a, stats_b, _, assumption = oracle.artifact_state()
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
            "assumption": assumption.name,
            "product": {"n": int(oracle.n), "m": int(oracle.m)},
            "factors": {
                "a": {"n": int(stats_a.n), "nnz": int(stats_a.adj.nnz)},
                "b": {"n": int(stats_b.n), "nnz": int(stats_b.adj.nnz)},
            },
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
            f"unsupported artifact schema {schema!r} (this build reads {ARTIFACT_SCHEMA!r})"
        )
    return info


_ZIP_LOCAL_HEADER = struct.Struct("<4s5H3I2H")  # fixed 30-byte local file header


def _npz_member_offsets(npz_path: Path) -> dict[str, tuple[int, int, bool]]:
    """Per-member ``(data_offset, data_size, stored)`` for an npz file.

    ``data_offset`` addresses the first byte of the member's ``.npy``
    stream inside the container (local header and filename skipped);
    ``stored`` is False for compressed (legacy) members, which cannot
    be mapped.
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


def _mmap_npz_arrays(npz_path: Path) -> dict[str, np.ndarray]:
    """Map every stored npz member as a read-only ``np.memmap``.

    Nothing is copied: each returned array is a view of the page cache
    over the artifact file, so N processes mapping the same artifact
    share one physical copy.  Compressed members (legacy artifacts from
    the ``savez_compressed`` era) cannot be mapped and are decompressed
    eagerly with a one-time warning.
    """
    arrays: dict[str, np.ndarray] = {}
    eager: list[str] = []
    with open(npz_path, "rb") as fh:
        for key, (offset, size, stored) in _npz_member_offsets(npz_path).items():
            if not stored:
                eager.append(key)
                continue
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
    if eager:
        warnings.warn(
            f"artifact {npz_path} has {len(eager)} compressed member(s) "
            "(legacy savez_compressed layout); loading them eagerly -- repack "
            "with `repro pack` for zero-copy mmap serving",
            RuntimeWarning,
            stacklevel=3,
        )
        with np.load(npz_path) as data:
            for key in eager:
                arrays[key] = data[key]
    return arrays


def load_oracle(
    path: PathLike,
    verify: bool = True,
    *,
    mmap: bool = False,
) -> GroundTruthOracle:
    """Rebuild a :class:`GroundTruthOracle` from an artifact directory.

    Verifies the sidecar's schema tag and (unless ``verify=False``) the
    content checksum *and* the persisted kernel coefficients against the
    factor statistics, raising :class:`ArtifactIntegrityError` on any
    disagreement -- a tampered or bit-rotted artifact never serves.

    ``mmap=True`` maps the arrays read-only straight out of the npz
    container instead of materializing copies: the checksum is verified
    against the file bytes (read through the mapping, nothing retained),
    and the oracle's factor statistics stay backed by the page cache --
    so forked serving workers share one physical artifact and per-worker
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
            if mmap:
                arrays = _mmap_npz_arrays(npz_path)
            else:
                with np.load(npz_path) as data:
                    arrays = {key: data[key] for key in data.files}
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            # BadZipFile covers zlib/CRC failure on a bit-rotted npz, which
            # numpy surfaces before our content checksum can run.
            raise ArtifactError(f"artifact {npz_path} is unreadable: {exc}") from exc
        if verify:
            actual = checksum_arrays(arrays)
            if actual != info.get("checksum"):
                raise ArtifactIntegrityError(
                    f"artifact checksum mismatch in {path}: arrays hash to {actual}, "
                    f"sidecar records {info.get('checksum')!r}"
                )
        try:
            assumption = Assumption[info["assumption"]]
        except KeyError as exc:
            raise ArtifactError(f"unknown assumption {info.get('assumption')!r}") from exc
        n_a = int(info["factors"]["a"]["n"])
        n_b = int(info["factors"]["b"]["n"])
        stats_a = _stats_from(arrays, "a", n_a)
        stats_b = _stats_from(arrays, "b", n_b)
        if "part_b" not in arrays:
            raise ArtifactError("artifact is missing the part_b bipartition mask")
        oracle = GroundTruthOracle.from_factor_stats(
            stats_a, stats_b, arrays["part_b"], assumption
        )
        if verify:
            vertex_l, vertex_r = oracle._term_matrices
            if not (
                np.array_equal(arrays.get("vertex_L"), vertex_l)
                and np.array_equal(arrays.get("vertex_R"), vertex_r)
            ):
                raise ArtifactIntegrityError(
                    f"artifact {path}: persisted kernel coefficients disagree with "
                    "the factor statistics (corrupt or hand-edited artifact)"
                )
    return oracle
