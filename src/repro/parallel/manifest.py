"""Checksummed shard manifests: the integrity record of a sharded run.

A sharded generation run (:func:`repro.parallel.generate.generate_chain_shards`)
writes one ``manifest.json`` next to its ``shard_*.edges`` files.  The
manifest is the run's durable source of truth: which product-row range
each shard covers, how many product entries it holds, its on-disk size,
and a **content checksum** of its arrays.  Extreme-scale generators
treat per-partition validation metadata as a first-class output (Kepner
et al. 2018; Sanders et al. 2019) — without it a partial failure is
silent, and a resumed run cannot tell a finished shard from a torn one.

Design points:

* **Content checksums, not file checksums.**  Hashing the *arrays*
  (name, dtype, shape, raw bytes, in sorted key order) makes the
  checksum a pure function of the shard's data, independent of the
  ``repro.edges/1`` codec (:mod:`repro.parallel.edgeio`) that encoded
  it: a raw and a deflate shard of the same rows carry the same
  checksum.
* **Atomic writes.**  The manifest is written to a temp name and
  ``os.replace``d into place, exactly like the shards themselves; a
  crash mid-update leaves the previous valid manifest, never a torn
  file.
* **Incremental.**  The parent rewrites the manifest after every shard
  completion, so the manifest on disk always describes exactly the set
  of shards that are safe to skip on resume.
* **Versioned and signed.**  ``manifest_version`` gates schema
  evolution; the *signature* (each factor's shape and CSR hash, shard
  count, ground-truth flag) pins the manifest to one generation
  configuration so ``resume=True`` refuses to mix incompatible runs —
  including manifests written before this signature, such as the old
  ``.npz`` runs.

See docs/fault_tolerance.md for the end-to-end crash/resume story.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.kronecker.multifactor import KroneckerChain

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "ManifestError",
    "ShardIntegrityError",
    "ShardEntry",
    "ShardManifest",
    "checksum_arrays",
    "shard_file_checksum",
    "chain_signature",
    "load_manifest",
    "write_manifest",
    "validate_manifest",
    "verify_shards",
]

PathLike = Union[str, os.PathLike]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


class ManifestError(ValueError):
    """Manifest is missing, malformed, or does not match this run."""


class ShardIntegrityError(ManifestError):
    """A shard file's content disagrees with its manifest checksum."""


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def checksum_arrays(arrays: Mapping[str, np.ndarray]) -> str:
    """Deterministic content checksum of a shard's arrays.

    Hashes ``(name, dtype, shape, raw bytes)`` per array in sorted key
    order.  Independent of the codec that encoded the file, so two runs
    producing the same data produce the same checksum — the property
    the crash/resume acceptance test asserts.
    """
    h = hashlib.sha256()
    for key in sorted(arrays):
        a = np.ascontiguousarray(arrays[key])
        h.update(key.encode("utf-8"))
        h.update(str(a.dtype).encode("ascii"))
        h.update(repr(a.shape).encode("ascii"))
        h.update(a.tobytes())
    return f"sha256:{h.hexdigest()}"


def shard_file_checksum(path: PathLike) -> str:
    """Load one ``repro.edges/1`` shard and recompute its content checksum.

    Any other file (an old ``.npz`` shard included) raises a typed
    :class:`~repro.parallel.edgeio.EdgeFormatError`.
    """
    from repro.parallel.edgeio import read_shard_arrays

    return checksum_arrays(read_shard_arrays(path, verify=False))


def chain_signature(
    chain: "KroneckerChain", n_shards: int, ground_truth: bool
) -> dict[str, Any]:
    """Pin a manifest to one ``(chain, sharding, payload)`` configuration."""
    return {
        **chain.signature(),
        "n_shards": int(n_shards),
        "ground_truth": bool(ground_truth),
    }


@dataclass
class ShardEntry:
    """One completed shard: its slice, payload stats, and checksum."""

    index: int
    path: str  # file name, relative to the manifest's directory
    start: int
    stop: int
    entries: int
    bytes: int
    checksum: str


@dataclass
class ShardManifest:
    """The run-level record: signature plus all completed shards."""

    signature: dict[str, Any]
    manifest_version: int = MANIFEST_VERSION
    created_at: str = field(default_factory=_utcnow)
    updated_at: str = field(default_factory=_utcnow)
    shards: dict[int, ShardEntry] = field(default_factory=dict)

    @property
    def n_shards(self) -> int:
        return int(self.signature["n_shards"])

    def is_complete(self) -> bool:
        return len(self.shards) == self.n_shards

    def add(self, entry: ShardEntry) -> None:
        self.shards[entry.index] = entry
        self.updated_at = _utcnow()

    def require_signature(self, signature: Mapping[str, Any]) -> None:
        """Refuse to resume against a manifest from a different run."""
        if dict(self.signature) != dict(signature):
            raise ManifestError(
                "manifest signature mismatch: manifest was written for "
                f"{self.signature}, this run is {dict(signature)}; "
                "use a fresh output directory (or drop resume=True)"
            )

    def to_json(self) -> dict[str, Any]:
        return {
            "manifest_version": self.manifest_version,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "signature": dict(self.signature),
            "shards": [asdict(self.shards[k]) for k in sorted(self.shards)],
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ShardManifest":
        version = payload.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise ManifestError(
                f"unsupported manifest_version {version!r} (expected {MANIFEST_VERSION})"
            )
        try:
            shards = {int(row["index"]): ShardEntry(**row) for row in payload["shards"]}
            return cls(
                signature=dict(payload["signature"]),
                manifest_version=int(version),
                created_at=str(payload["created_at"]),
                updated_at=str(payload["updated_at"]),
                shards=shards,
            )
        except (KeyError, TypeError) as exc:
            raise ManifestError(f"malformed manifest: {exc}") from exc


def write_manifest(manifest: ShardManifest, path: PathLike) -> Path:
    """Atomically persist the manifest (temp name + ``os.replace``)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(manifest.to_json(), indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


def load_manifest(path: PathLike) -> ShardManifest:
    """Load and schema-check a manifest written by :func:`write_manifest`."""
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ManifestError(f"no manifest at {path}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
    return ShardManifest.from_json(payload)


def validate_manifest(manifest: ShardManifest, out_dir: PathLike) -> list[str]:
    """Re-checksum every recorded shard; return human-readable problems.

    An empty list means every shard listed in the manifest exists on
    disk and its content hashes to the recorded checksum.  Shards the
    manifest does not record are not *problems* (an interrupted run is
    valid, merely incomplete) — completeness is a separate question
    answered by :meth:`ShardManifest.is_complete`.
    """
    out_dir = Path(out_dir)
    problems: list[str] = []
    for index in sorted(manifest.shards):
        entry = manifest.shards[index]
        shard_path = out_dir / entry.path
        if not shard_path.exists():
            problems.append(f"shard {index}: missing file {entry.path}")
            continue
        size = shard_path.stat().st_size
        if size != entry.bytes:
            problems.append(
                f"shard {index}: size {size} != recorded {entry.bytes} ({entry.path})"
            )
        try:
            actual = shard_file_checksum(shard_path)
        except (OSError, ValueError) as exc:
            problems.append(f"shard {index}: unreadable ({entry.path}): {exc}")
            continue
        if actual != entry.checksum:
            problems.append(
                f"shard {index}: checksum {actual} != recorded {entry.checksum} ({entry.path})"
            )
    return problems


def verify_shards(out_dir: PathLike, require_complete: bool = True) -> ShardManifest:
    """Load ``out_dir``'s manifest and verify every shard end-to-end.

    Raises :class:`ShardIntegrityError` on any mismatch, on a
    ``shard_*.edges`` file outside the manifest's plan (and, with
    ``require_complete=True``, on missing shards); returns the verified
    manifest otherwise.  This is what ``python -m repro shards --verify``
    and the crash/resume drill of ``benchmarks/smoke.py`` call.
    """
    out_dir = Path(out_dir)
    manifest = load_manifest(out_dir / MANIFEST_NAME)
    problems = validate_manifest(manifest, out_dir)
    # A shard file outside the plan (left by an earlier run with more
    # shards) would join any glob over the directory.
    recorded = {entry.path for entry in manifest.shards.values()}
    for path in sorted(out_dir.glob("shard_*.edges")):
        index = path.stem.removeprefix("shard_")
        planned = index.isdigit() and int(index) < manifest.n_shards
        if path.name not in recorded and not planned:
            problems.append(
                f"shard file {path.name} is not part of the manifest's "
                f"{manifest.n_shards}-shard plan"
            )
    if require_complete and not manifest.is_complete():
        done = sorted(manifest.shards)
        problems.append(
            f"manifest incomplete: {len(done)}/{manifest.n_shards} shards recorded"
        )
    if problems:
        raise ShardIntegrityError(
            f"shard verification failed in {out_dir}:\n  " + "\n  ".join(problems)
        )
    return manifest
