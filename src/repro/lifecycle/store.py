"""Versioned index store: crash-safe publication of candidate indexes.

Directory layout under one store root::

    journal/                    write-ahead event journal (:mod:`.journal`)
    versions/
      v000001/
        index/                  EmbeddingIndex archive: metadata.json (a SHA-256
                                per array) + one uncompressed .npy per array
        ann/                    IVFIndex archive, same per-array layout
        manifest.json           written LAST — its presence commits the dir;
                                "artifacts" names the two archives above
      v000002/ ...
    CURRENT.json                atomic pointer to the live version

A version is read back through the paths its manifest names, every array
verified against its SHA-256.

Two rules make every state reachable by a crash recoverable:

1. **Manifest-last version dirs.**  A version directory is only real once
   ``manifest.json`` exists; the manifest is staged and ``os.replace``-d
   into place after every archive inside the dir has been durably
   written (each archive is itself staged+renamed by the persistence
   layer).  A SIGKILL mid-build leaves a manifest-less dir, which
   :meth:`VersionStore.recover` sweeps — a torn candidate can never be
   listed, promoted, or served.

2. **The CURRENT flip is the commit point.**  Promotion writes
   ``CURRENT.json`` via staging+rename; everything before the rename is
   invisible, everything after is fully in effect.  Manifest *statuses*
   (candidate/live/superseded/rejected) are derived bookkeeping updated
   after the flip, so :meth:`recover` reconciles them against the
   pointer on startup: whatever CURRENT names is live, any other
   "live"-stamped manifest is demoted to superseded.

Rollback is a plain pointer flip to the live version's parent (every
manifest records its parent), plus a "rejected" stamp on the version
being rolled away — no archives are deleted, so a bad rollback decision
is itself reversible.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from typing import Dict, List, Optional, Tuple

from ..archive import clean_stale_archives
from ..serving.ann.ivf import IVFIndex
from ..serving.index import EmbeddingIndex

MANIFEST_FILENAME = "manifest.json"
INDEX_DIRNAME = "index"
ANN_DIRNAME = "ann"
CURRENT_FILENAME = "CURRENT.json"

#: manifest lifecycle states
STATUSES = ("candidate", "live", "superseded", "rejected")

_VERSION_RE = re.compile(r"^v(\d{6})$")


class StoreError(RuntimeError):
    """A version store operation was asked for an impossible transition."""


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_json_atomic(path: str, payload: Dict) -> None:
    """Stage + ``os.replace`` a JSON file (same pattern as the archives)."""
    staging = f"{path}.tmp-{os.getpid()}"
    with open(staging, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(staging, path)
    _fsync_dir(os.path.dirname(path) or ".")


class VersionStore:
    """Filesystem-backed versioned index store (layout in module docstring)."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.versions_dir = os.path.join(self.root, "versions")
        self.journal_dir = os.path.join(self.root, "journal")
        os.makedirs(self.versions_dir, exist_ok=True)
        os.makedirs(self.journal_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # Naming / listing
    # ------------------------------------------------------------------
    def version_path(self, name: str) -> str:
        return os.path.join(self.versions_dir, name)

    def list_versions(self, committed_only: bool = True) -> List[str]:
        """Version names ascending; by default only manifest-bearing dirs."""
        names = []
        for entry in sorted(os.listdir(self.versions_dir)):
            if not _VERSION_RE.match(entry):
                continue
            if committed_only and not os.path.exists(
                os.path.join(self.versions_dir, entry, MANIFEST_FILENAME)
            ):
                continue
            names.append(entry)
        return names

    def next_version_name(self) -> str:
        """The next unused ``v%06d`` (counts torn dirs too — never reuses)."""
        highest = 0
        for entry in os.listdir(self.versions_dir):
            m = _VERSION_RE.match(entry)
            if m:
                highest = max(highest, int(m.group(1)))
        return f"v{highest + 1:06d}"

    # ------------------------------------------------------------------
    # Manifests
    # ------------------------------------------------------------------
    def manifest_path(self, name: str) -> str:
        return os.path.join(self.version_path(name), MANIFEST_FILENAME)

    def read_manifest(self, name: str) -> Dict:
        with open(self.manifest_path(name), "r", encoding="utf-8") as fh:
            return json.load(fh)

    def write_manifest(self, name: str, manifest: Dict) -> None:
        _write_json_atomic(self.manifest_path(name), manifest)

    def _stamp(self, name: str, status: str, **fields) -> None:
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}")
        manifest = self.read_manifest(name)
        manifest["status"] = status
        manifest.update(fields)
        self.write_manifest(name, manifest)

    # ------------------------------------------------------------------
    # Candidate publication
    # ------------------------------------------------------------------
    def write_candidate(
        self,
        index: EmbeddingIndex,
        ann: IVFIndex,
        manifest: Dict,
        crash_hook=None,
    ) -> str:
        """Durably write a candidate version; returns its name.

        The manifest lands last — a crash anywhere before that (including
        one injected through ``crash_hook``, called between the archive
        writes and the manifest write) leaves a torn dir for
        :meth:`recover` to sweep, never a half-candidate.  The caller's
        ``manifest`` dict is extended with the structural fields
        (version/status/artifacts).
        """
        name = self.next_version_name()
        path = self.version_path(name)
        os.makedirs(path, exist_ok=True)
        index.save(os.path.join(path, INDEX_DIRNAME))
        ann.save(os.path.join(path, ANN_DIRNAME))
        if crash_hook is not None:
            crash_hook()
        full = dict(manifest)
        full.update(
            {
                "version": name,
                "status": "candidate",
                "artifacts": {"index": INDEX_DIRNAME, "ann": ANN_DIRNAME},
                "n_users": int(index.n_users),
                "n_items": int(index.n_items),
            }
        )
        self.write_manifest(name, full)
        return name

    def load_version(
        self, name: str, mmap: bool = False
    ) -> Tuple[EmbeddingIndex, IVFIndex]:
        """Load a committed version's index + ANN from the archives its manifest names."""
        if not os.path.exists(self.manifest_path(name)):
            raise StoreError(f"version {name} has no manifest (torn or unknown)")
        root = self.version_path(name)
        artifacts = self.read_manifest(name).get("artifacts") or {}
        paths = {}
        for kind in ("index", "ann"):
            entry = artifacts.get(kind)
            path = os.path.abspath(os.path.join(root, entry)) if isinstance(entry, str) else ""
            if os.path.dirname(path) != root:
                raise StoreError(
                    f"version {name}: manifest names no {kind!r} archive inside "
                    f"the version dir (artifacts: {artifacts!r})"
                )
            paths[kind] = path
        index = EmbeddingIndex.load(paths["index"], mmap=mmap)
        ann = IVFIndex.load(paths["ann"], index, mmap=mmap)
        return index, ann

    # ------------------------------------------------------------------
    # The CURRENT pointer
    # ------------------------------------------------------------------
    @property
    def current_path(self) -> str:
        return os.path.join(self.root, CURRENT_FILENAME)

    def current(self) -> Optional[str]:
        """Name of the live version, or None before the first promote."""
        try:
            with open(self.current_path, "r", encoding="utf-8") as fh:
                return json.load(fh)["version"]
        except FileNotFoundError:
            return None

    def set_current(self, name: str) -> Optional[str]:
        """Flip the live pointer to ``name`` (THE commit point).

        Requires a committed manifest.  After the flip, stamps the new
        version ``live`` and the previous one ``superseded`` — those
        stamps are recoverable bookkeeping; the pointer alone defines
        truth.  Returns the previous version name.
        """
        if not os.path.exists(self.manifest_path(name)):
            raise StoreError(f"cannot promote {name}: no committed manifest")
        previous = self.current()
        _write_json_atomic(self.current_path, {"version": name})
        self._stamp(name, "live")
        if previous and previous != name and os.path.exists(self.manifest_path(previous)):
            self._stamp(previous, "superseded")
        return previous

    def reject(self, name: str, reason: str) -> None:
        """Stamp a candidate rejected (gate failure, rollback target…)."""
        self._stamp(name, "rejected", rejected_reason=reason)

    def rollback(self, reason: str = "manual rollback") -> str:
        """Flip CURRENT back to the live version's parent.

        The abandoned version is stamped ``rejected`` (its archives stay
        on disk — rollback is reversible by promoting it again).  Returns
        the name now live.
        """
        live = self.current()
        if live is None:
            raise StoreError("nothing is live; cannot roll back")
        parent = self.read_manifest(live).get("parent")
        if not parent:
            raise StoreError(f"live version {live} has no parent to roll back to")
        if not os.path.exists(self.manifest_path(parent)):
            raise StoreError(f"rollback target {parent} is missing its manifest")
        _write_json_atomic(self.current_path, {"version": parent})
        self._stamp(parent, "live")
        self._stamp(live, "rejected", rejected_reason=reason)
        return parent

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def recover(self) -> Dict[str, List[str]]:
        """Reconcile on-disk state after a crash; returns what was done.

        * sweeps version dirs without a manifest (torn candidates) and
          stale archive/JSON staging files,
        * re-derives manifest statuses from the CURRENT pointer: the
          pointed-at version is ``live``; any other manifest claiming
          ``live`` becomes ``superseded`` (a crash between the pointer
          flip and the stamps).

        Idempotent: a second call is a no-op.
        """
        actions: Dict[str, List[str]] = {"swept": [], "restamped": []}
        for entry in sorted(os.listdir(self.versions_dir)):
            path = os.path.join(self.versions_dir, entry)
            if not os.path.isdir(path):
                continue
            if not _VERSION_RE.match(entry):
                continue
            if not os.path.exists(os.path.join(path, MANIFEST_FILENAME)):
                shutil.rmtree(path)
                actions["swept"].append(entry)
                continue
            swept = clean_stale_archives(path)
            actions["swept"].extend(os.path.join(entry, s) for s in swept)
            for leftover in os.listdir(path):
                if f"{MANIFEST_FILENAME}.tmp-" in leftover:
                    os.remove(os.path.join(path, leftover))
                    actions["swept"].append(os.path.join(entry, leftover))
        for leftover in os.listdir(self.root):
            if f"{CURRENT_FILENAME}.tmp-" in leftover:
                os.remove(os.path.join(self.root, leftover))
                actions["swept"].append(leftover)

        live = self.current()
        if live is not None and not os.path.exists(self.manifest_path(live)):
            raise StoreError(
                f"CURRENT points at {live} which has no manifest — the store "
                "root was tampered with (the pointer only ever flips to "
                "committed versions)"
            )
        for name in self.list_versions():
            manifest = self.read_manifest(name)
            status = manifest.get("status")
            if name == live and status != "live":
                self._stamp(name, "live")
                actions["restamped"].append(f"{name}:live")
            elif name != live and status == "live":
                self._stamp(name, "superseded")
                actions["restamped"].append(f"{name}:superseded")
        return actions

    # ------------------------------------------------------------------
    def status(self) -> Dict:
        """One-shot store summary (the CLI's ``lifecycle status`` payload)."""
        versions = []
        for name in self.list_versions():
            m = self.read_manifest(name)
            versions.append(
                {
                    "version": name,
                    "status": m.get("status"),
                    "parent": m.get("parent"),
                    "n_items": m.get("n_items"),
                    "n_users": m.get("n_users"),
                    "journal_seq": m.get("journal_seq"),
                    "appended_since_recluster": m.get("appended_since_recluster"),
                    "reclustered": m.get("reclustered"),
                }
            )
        return {"current": self.current(), "versions": versions}
