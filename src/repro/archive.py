"""Checksummed array directories: the one container of every artifact.

Every artifact is one container, an **archive directory**: one
uncompressed ``.npy`` file per array plus ``metadata.json``, a JSON header
(:func:`write_archive`).  Four artifact kinds share it:

* **model checkpoints** (:mod:`repro.train.persistence`) — every named
  parameter of a :class:`~repro.core.base.Recommender`;
* **serving indexes** (:mod:`repro.serving.index`) — frozen embedding
  branches exported for online retrieval;
* **IVF layouts** (:mod:`repro.serving.ann.archive`);
* **bulk exports** (:class:`~repro.runtime.engine.BulkRecommendations`).

Any archive loads with ``mmap=True``, in which case its arrays are
memory-mapped straight off disk: processes attaching to the same
directory share the page cache instead of each deserializing a copy.

Durability guarantees:

* **Atomic publish** — :func:`write_archive` fills a ``<path>.tmp-<pid>``
  staging sibling and writes its header last, so a staging directory that
  holds a header is a complete generation.  A fresh write renames it into
  place.  An overwrite renames the old generation aside, renames the new
  one in, then deletes the old.  An overwrite killed at any step leaves
  a complete generation, old or new, that :func:`clean_stale_archives`
  (run by ``Experiment.load`` and the lifecycle store's recovery) puts
  back at the path if the path is missing; every other staging leftover
  is deleted, by that sweep and by the next write to the same path.
* **Content checksums** — the header records a SHA-256 digest per array;
  readers verify on load (skipped for ``mmap`` loads unless forced) and
  raise the typed :class:`ArchiveCorrupted` naming the bad array.  Every
  load, mapped or not, also compares the stored array set with the
  header's: a missing array, an array the header does not list, or a
  header without checksums is refused.

There are no legacy readers: :func:`check_header` refuses an artifact of
another kind or format version, and the fix is always to re-export.

This module imports NumPy alone: reading an index never loads a model.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import Dict, List, Optional

import numpy as np

_METADATA_FILENAME = "metadata.json"
_NPY_SUFFIX = ".npy"
_STAGING_TOKEN = ".tmp-"
#: suffix of the old generation an overwrite has renamed aside
_RETIRED_SUFFIX = ".old"

#: metadata header field holding the per-array SHA-256 hex digests
CHECKSUM_KEY = "sha256"


class ArchiveCorrupted(RuntimeError):
    """An archive's arrays disagree with the checksum header it was written with."""


#: header field naming the artifact kind
KIND_KEY = "kind"
CHECKPOINT_KIND = "checkpoint"


def _array_checksum(value: np.ndarray) -> str:
    """SHA-256 hex digest of an array's canonical (C-order) raw bytes.

    Hashes the buffer in place — a copy only when the array is not
    C-contiguous — so the digest is ``tobytes()``'s without its copy.
    """
    flat = np.ascontiguousarray(value).reshape(-1)
    return hashlib.sha256(flat.view(np.uint8)).hexdigest()


def _metadata_with_checksums(metadata: Dict, arrays: Dict[str, np.ndarray]) -> Dict:
    if CHECKSUM_KEY in metadata:
        raise ValueError(f"metadata key {CHECKSUM_KEY!r} is reserved for checksums")
    out = dict(metadata)
    out[CHECKSUM_KEY] = {name: _array_checksum(value) for name, value in arrays.items()}
    return out


def _is_complete(path: str) -> bool:
    """Whether a staging directory's writer got as far as its header."""
    try:
        read_archive_metadata(path)
    except (OSError, ValueError):  # no header yet, or one cut off mid-write
        return False
    return True


def _sweep(directory: str, prefix: str) -> List[str]:
    """Clear the ``prefix*.tmp-*`` staging leftovers in ``directory``.

    A complete generation whose archive path is missing — an overwrite was
    killed between its two renames — is renamed onto that path; every
    other leftover is deleted.  Returns the leftovers' paths.
    """
    swept: List[str] = []
    if not os.path.isdir(directory):
        return swept
    for entry in sorted(os.listdir(directory)):
        if not entry.startswith(prefix) or _STAGING_TOKEN not in entry:
            continue
        full = os.path.join(directory, entry)
        target = os.path.join(directory, entry.split(_STAGING_TOKEN)[0])
        if not os.path.lexists(target) and _is_complete(full):
            os.rename(full, target)
        elif os.path.isdir(full):
            shutil.rmtree(full, ignore_errors=True)
        else:
            try:
                os.remove(full)
            except OSError:
                continue
        swept.append(full)
    return swept


def clean_stale_archives(directory: str) -> List[str]:
    """Finish or remove the ``*.tmp-*`` staging leftovers a crashed writer left.

    Returns their paths.  Safe to call on any directory (missing ones are a
    no-op); experiment and store loaders call this on startup, so a crash
    during an earlier write leaves a complete archive at its path — the old
    generation or the new one — and nothing half-written beside it.
    """
    return _sweep(directory, "")


def write_archive(path: str, arrays: Dict[str, np.ndarray], metadata: Dict) -> str:
    """Write an archive directory at ``path``: metadata.json + one .npy per array.

    Array names map directly to filenames, so they must not contain path
    separators.  The header gains a SHA-256 digest per array (verified by
    :func:`read_archive_arrays`).  The write is staged and published as
    the module docstring describes: readers never see a half-written or
    mixed-generation archive.
    """
    for name in arrays:
        if os.sep in name or (os.altsep and os.altsep in name) or name == _METADATA_FILENAME:
            raise ValueError(f"array name {name!r} cannot be used as an archive filename")
    header = _metadata_with_checksums(metadata, arrays)

    _sweep(os.path.dirname(os.path.abspath(path)), os.path.basename(path) + _STAGING_TOKEN)
    staging = f"{path}{_STAGING_TOKEN}{os.getpid()}"
    os.makedirs(staging)
    for name, value in arrays.items():
        np.save(os.path.join(staging, name + _NPY_SUFFIX), np.asarray(value))
    with open(os.path.join(staging, _METADATA_FILENAME), "w") as handle:
        json.dump(header, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if not os.path.isdir(path):
        os.rename(staging, path)
        return path
    retired = staging + _RETIRED_SUFFIX
    os.rename(path, retired)
    os.rename(staging, path)
    shutil.rmtree(retired)
    return path


def read_archive_metadata(path: str) -> Dict:
    """Read only the JSON header of an archive."""
    header = os.path.join(path, _METADATA_FILENAME)
    if os.path.exists(path) and not os.path.isfile(header):
        raise ValueError(f"{path} is not a repro archive directory (missing {_METADATA_FILENAME})")
    with open(header) as handle:  # a missing path raises FileNotFoundError
        return json.load(handle)


def read_archive_arrays(
    path: str, mmap: bool = False, verify: Optional[bool] = None
) -> Dict[str, np.ndarray]:
    """Read every stored array of an archive.

    ``mmap=True`` memory-maps the arrays (read-only views backed by the OS
    page cache).

    The stored array set must match the header's checksum keys exactly —
    a missing array, an unlisted one, or a header without checksums raises
    :class:`ArchiveCorrupted` on every load.  ``verify`` controls the
    SHA-256 comparison itself: the default (``None``) hashes except for
    ``mmap`` loads — hashing a mapped array would page the whole file in,
    defeating the point of mapping — and can be forced either way.  A
    mismatch raises :class:`ArchiveCorrupted`.
    """
    if verify is None:
        verify = not mmap
    metadata = read_archive_metadata(path)
    arrays: Dict[str, np.ndarray] = {}
    for entry in sorted(os.listdir(path)):
        if not entry.endswith(_NPY_SUFFIX):
            continue
        arrays[entry[: -len(_NPY_SUFFIX)]] = np.load(
            os.path.join(path, entry), mmap_mode="r" if mmap else None
        )
    _verify_arrays(path, metadata.get(CHECKSUM_KEY), arrays, verify)
    return arrays


def _verify_arrays(
    path: str, checksums: Optional[Dict[str, str]], arrays: Dict[str, np.ndarray], hashes: bool
) -> None:
    if checksums is None:
        raise ArchiveCorrupted(
            f"archive {path!r} has no {CHECKSUM_KEY!r} header, so its arrays cannot "
            "be verified; re-export it with `repro export`"
        )
    missing = sorted(set(checksums) - set(arrays))
    unlisted = sorted(set(arrays) - set(checksums))
    if missing or unlisted:
        raise ArchiveCorrupted(
            f"archive {path!r} does not hold the arrays its header lists: "
            f"missing {missing}, not listed {unlisted}"
        )
    if not hashes:
        return
    for name, array in arrays.items():
        expected = checksums[name]
        actual = _array_checksum(array)
        if actual != expected:
            raise ArchiveCorrupted(
                f"array {name!r} in archive {path!r} failed checksum verification "
                f"(stored {expected[:12]}..., loaded {actual[:12]}...); the archive "
                "is corrupt or was modified outside the writer"
            )


def archive_kind(metadata: Dict) -> Optional[str]:
    """Artifact kind recorded in a header (``None`` for a header without one)."""
    return metadata.get(KIND_KEY)


def check_header(
    path: str, metadata: Dict, kind: str, label: str, version: Optional[int] = None
) -> None:
    """Refuse an artifact of the wrong kind or of another format version.

    The one check every artifact reader runs before it touches an array.
    ``label`` names the expected artifact in the error ("an IVF index");
    ``version`` is the format this reader understands — kinds that never
    versioned their layout (checkpoints, bulk exports) pass none.  Older
    fails like newer: re-exporting with the running code fixes either.
    """
    found = archive_kind(metadata)
    if found != kind:
        raise ValueError(f"{path} holds a {found!r} artifact, not {label}")
    if version is None:
        return
    stored = metadata["format_version"]
    if stored != version:
        raise ValueError(
            f"{path}: format v{stored} of {label} is "
            f"{'newer' if stored > version else 'older'} than this reader "
            f"(v{version}); re-export it with `repro export`"
        )
