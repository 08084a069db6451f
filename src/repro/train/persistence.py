"""Persistence of trained artifacts: ``.npz`` archives and array directories.

Two artifact kinds share the on-disk formats:

* **model checkpoints** (:func:`save_checkpoint` / :func:`load_checkpoint`)
  — every named parameter of a :class:`~repro.core.base.Recommender`;
* **serving indexes** (:mod:`repro.serving.index`) — frozen embedding
  branches exported for online retrieval.

Two interchangeable container formats exist:

* **compressed ``.npz``** — a single file whose ``__metadata__`` entry is a
  JSON header (stored as a uint8 byte array).  One file, the ``export`` /
  checkpoint default; measured on a 2 000 x 24 000 index + IVF layout,
  deflate saves 7 % on float32 factors and ~18 % overall (6.5 vs 7.9 MB)
  for ~10x the write and ~5x the read time (233 vs 26 ms, 48 vs 10 ms).
* **archive directory** — ``metadata.json`` plus one uncompressed ``.npy``
  file per array (:func:`write_archive_dir`); what the lifecycle store
  publishes.  Loadable with ``mmap=True``, in which case arrays are
  memory-mapped straight off disk: multiple worker processes attaching to
  the same directory share the page cache instead of each deserializing
  its own copy.

:func:`read_archive_metadata` / :func:`read_archive_arrays` accept either
format transparently (a path that is a directory is read as one); the
checkpoint functions below and the serving index build on them.

Durability guarantees (both formats):

* **Atomic publish** — writers fill a ``*.tmp-<pid>`` staging sibling and
  rename it into place, so a crashed export can never be loaded
  half-written; stale staging leftovers are swept by
  :func:`clean_stale_archives` (called on experiment load) and by the next
  write to the same path.
* **Content checksums** — the metadata header records a SHA-256 digest per
  array; readers verify on load (skipped for ``mmap`` loads unless forced)
  and raise the typed :class:`ArchiveCorrupted` naming the bad array.
  Every load, mapped or not, also compares the stored array set with the
  header's: a missing array, an array the header does not list, or a header
  without checksums is refused.

There are no legacy readers: :func:`check_header` refuses an artifact of
another kind or format version, and the fix is always to re-export.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import Dict, List, Optional

import numpy as np

from ..core.base import Recommender

_METADATA_KEY = "__metadata__"
_DIR_METADATA_FILENAME = "metadata.json"
_NPY_SUFFIX = ".npy"
_STAGING_TOKEN = ".tmp-"

#: metadata header field holding the per-array SHA-256 hex digests
CHECKSUM_KEY = "sha256"


class ArchiveCorrupted(RuntimeError):
    """An archive's arrays disagree with the checksum header it was written with."""

#: header field naming the artifact kind
KIND_KEY = "kind"
CHECKPOINT_KIND = "checkpoint"


# ----------------------------------------------------------------------
# Generic archive layer
# ----------------------------------------------------------------------
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


def clean_stale_archives(directory: str) -> List[str]:
    """Remove ``*.tmp-*`` staging leftovers a crashed writer abandoned.

    Returns the paths removed.  Safe to call on any directory (missing ones
    are a no-op); experiment/artifact loaders call this on startup so a
    crash during a previous export can never leave half-written archives
    around to be confused with real ones.
    """
    removed: List[str] = []
    if not os.path.isdir(directory):
        return removed
    for entry in sorted(os.listdir(directory)):
        if _STAGING_TOKEN not in entry:
            continue
        full = os.path.join(directory, entry)
        if os.path.isdir(full):
            shutil.rmtree(full, ignore_errors=True)
        else:
            try:
                os.remove(full)
            except OSError:
                continue
        removed.append(full)
    return removed


def _clean_own_staging(path: str) -> None:
    """Drop stale staging siblings of ``path`` from earlier crashed writes."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    prefix = os.path.basename(path) + _STAGING_TOKEN
    if not os.path.isdir(directory):
        return
    for entry in os.listdir(directory):
        if not entry.startswith(prefix):
            continue
        full = os.path.join(directory, entry)
        if os.path.isdir(full):
            shutil.rmtree(full, ignore_errors=True)
        else:
            try:
                os.remove(full)
            except OSError:
                pass


def write_archive(path: str, arrays: Dict[str, np.ndarray], metadata: Dict) -> str:
    """Write ``arrays`` plus a JSON ``metadata`` header to ``path`` (.npz).

    The write is staged through a ``*.tmp-<pid>`` sibling and atomically
    renamed into place, and the header gains a SHA-256 digest per array
    (verified by :func:`read_archive_arrays`).
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    if _METADATA_KEY in arrays:
        raise ValueError(f"array name {_METADATA_KEY!r} is reserved for the header")
    payload = dict(arrays)
    payload[_METADATA_KEY] = np.frombuffer(
        json.dumps(_metadata_with_checksums(metadata, arrays)).encode("utf-8"),
        dtype=np.uint8,
    )
    _clean_own_staging(path)
    # np.savez appends ".npz" to names that lack it, so the staging name
    # keeps the suffix: foo.npz -> foo.npz.tmp-<pid>.npz
    staging = f"{path}{_STAGING_TOKEN}{os.getpid()}.npz"
    np.savez_compressed(staging, **payload)
    os.replace(staging, path)
    return path


def write_archive_dir(path: str, arrays: Dict[str, np.ndarray], metadata: Dict) -> str:
    """Write an uncompressed archive directory: metadata.json + one .npy per array.

    The per-array layout is what makes ``mmap`` loading possible — a zipped
    ``.npz`` cannot be memory-mapped.  Array names map directly to
    filenames, so they must not contain path separators.

    Every write is staged: the new generation is fully written to a
    ``*.tmp-<pid>`` sibling directory and renamed into place, so readers
    never see a half-written or mixed-generation archive.  A fresh write is
    fully atomic (the rename publishes a complete directory); an overwrite
    has a narrow no-archive window between removing the old generation and
    the rename, which fails loudly rather than serving mixed data.  The
    metadata header gains a SHA-256 digest per array (verified by
    :func:`read_archive_arrays`).
    """
    for name in arrays:
        if os.sep in name or (os.altsep and os.altsep in name) or name == _DIR_METADATA_FILENAME:
            raise ValueError(f"array name {name!r} cannot be used as an archive filename")

    full_metadata = _metadata_with_checksums(metadata, arrays)

    def _fill(target: str) -> None:
        os.makedirs(target, exist_ok=True)
        with open(os.path.join(target, _DIR_METADATA_FILENAME), "w") as handle:
            json.dump(full_metadata, handle, indent=2, sort_keys=True)
            handle.write("\n")
        for name, value in arrays.items():
            np.save(os.path.join(target, name + _NPY_SUFFIX), np.asarray(value))

    _clean_own_staging(path)
    staging = f"{path}{_STAGING_TOKEN}{os.getpid()}"
    _fill(staging)
    if os.path.isdir(path):
        shutil.rmtree(path)
    os.rename(staging, path)
    return path


def _npz_metadata(archive, path: str) -> Dict:
    if _METADATA_KEY not in archive:
        raise ValueError(f"{path} is not a repro archive (missing metadata header)")
    return json.loads(archive[_METADATA_KEY].tobytes().decode("utf-8"))


def read_archive_metadata(path: str) -> Dict:
    """Read only the JSON header of an archive (either container format)."""
    if os.path.isdir(path):
        header = os.path.join(path, _DIR_METADATA_FILENAME)
        if not os.path.exists(header):
            raise ValueError(f"{path} is not a repro archive directory (missing {_DIR_METADATA_FILENAME})")
        with open(header) as handle:
            return json.load(handle)
    with np.load(path) as archive:
        return _npz_metadata(archive, path)


def read_archive_arrays(
    path: str, mmap: bool = False, verify: Optional[bool] = None
) -> Dict[str, np.ndarray]:
    """Read every stored array (header excluded) from either container format.

    ``mmap=True`` memory-maps the arrays of a directory archive (read-only
    views backed by the OS page cache).  Compressed ``.npz`` archives cannot
    be mapped; the flag is silently ignored for them and the arrays are read
    into memory as before.

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
    if os.path.isdir(path):
        metadata = read_archive_metadata(path)
        arrays: Dict[str, np.ndarray] = {}
        for entry in sorted(os.listdir(path)):
            if not entry.endswith(_NPY_SUFFIX):
                continue
            arrays[entry[: -len(_NPY_SUFFIX)]] = np.load(
                os.path.join(path, entry), mmap_mode="r" if mmap else None
            )
    else:
        with np.load(path) as archive:
            metadata = _npz_metadata(archive, path)
            arrays = {
                name: archive[name] for name in archive.files if name != _METADATA_KEY
            }
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


# ----------------------------------------------------------------------
# Model checkpoints
# ----------------------------------------------------------------------
def save_checkpoint(model: Recommender, path: str, extra: Dict | None = None) -> str:
    """Serialize ``model``'s parameters to ``path`` (.npz appended if absent).

    Arrays are stored in their native dtype — a float32 model writes a
    float32 (half-size) checkpoint — and the header records the precision;
    ``load_checkpoint`` casts to whatever precision the target model was
    built with.
    """
    state = model.state_dict()
    metadata = {
        KIND_KEY: CHECKPOINT_KIND,
        "model_name": model.name,
        "model_class": type(model).__name__,
        "n_users": model.n_users,
        "n_items": model.n_items,
        "parameter_names": sorted(state),
        "precision": sorted({str(value.dtype) for value in state.values()}),
        "extra": extra or {},
    }
    return write_archive(path, state, metadata)


def load_metadata(path: str) -> Dict:
    """Read only the metadata header of a checkpoint."""
    return read_archive_metadata(path)


def load_checkpoint(model: Recommender, path: str, strict: bool = True) -> Dict:
    """Restore parameters into ``model``; returns the checkpoint metadata.

    With ``strict=True`` the checkpoint's model class and shape bookkeeping
    must match the target model exactly.
    """
    metadata = load_metadata(path)
    check_header(path, metadata, CHECKPOINT_KIND, "a model checkpoint")
    if strict:
        if metadata["model_class"] != type(model).__name__:
            raise ValueError(
                f"checkpoint holds {metadata['model_class']}, target is {type(model).__name__}"
            )
        if metadata["n_users"] != model.n_users or metadata["n_items"] != model.n_items:
            raise ValueError(
                "checkpoint user/item counts "
                f"({metadata['n_users']}/{metadata['n_items']}) do not match model "
                f"({model.n_users}/{model.n_items})"
            )
    model.load_state_dict(read_archive_arrays(path))
    return metadata
