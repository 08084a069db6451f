"""What an ANN index looks like on disk — one writer, one reader, every kind.

An archive (either container of :mod:`repro.train.persistence`) holds the
index's *own* arrays plus a header: ``kind``, ``format_version``, and the
``model_name`` / ``n_users`` / ``n_items`` of the source index it must be
re-attached to.  An IVF archive embeds its PQ companion through the same
payload codec the standalone PQ kind uses.  There are no legacy readers: an
archive of another format version is refused with "re-export".
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from ...train import persistence
from .ivf import IVFIndex
from .pq import PQBranch, PQIndex
from .tiered import TieredIndexConfig, TieredIVFIndex

PQ_KIND = "pq_index"
IVF_KIND = "ivf_index"

Arrays = Dict[str, np.ndarray]


# The PQ payload codec, shared by the standalone kind and the IVF companion.
def _encode_pq(branches: List[PQBranch], arrays: Arrays, prefix: str = "") -> List[Dict]:
    """Store codes, codebooks and rotations; returns the per-branch header rows."""
    rows = []
    for i, pb in enumerate(branches):
        arrays[f"{prefix}branch{i}.codes"] = pb.codes
        for m, cb in enumerate(pb.codebooks):
            arrays[f"{prefix}branch{i}.codebook{m}"] = cb
        if pb.rotation is not None:
            arrays[f"{prefix}branch{i}.rotation"] = pb.rotation
        rows.append(
            {
                "n_subspaces": pb.n_subspaces,
                "splits": [[int(lo), int(hi)] for lo, hi in pb.splits],
                "rotation": pb.rotation is not None,
            }
        )
    return rows


def _decode_pq(rows: List[Dict], arrays: Arrays, prefix: str = "") -> List[PQBranch]:
    return [
        PQBranch(
            codebooks=[
                np.asarray(arrays[f"{prefix}branch{i}.codebook{m}"], dtype=np.float64)
                for m in range(int(row["n_subspaces"]))
            ],
            codes=np.ascontiguousarray(arrays[f"{prefix}branch{i}.codes"]),
            rotation=(
                np.asarray(arrays[f"{prefix}branch{i}.rotation"], dtype=np.float64)
                if row["rotation"]
                else None
            ),
            splits=[(int(lo), int(hi)) for lo, hi in row["splits"]],
        )
        for i, row in enumerate(rows)
    ]


# Per-kind layouts: encode fills ``arrays`` and returns the kind-specific
# header fields; the common fields are written and checked once, below.
def _encode_standalone_pq(ann: PQIndex, arrays: Arrays, include_items: bool) -> Dict:
    return {"rerank_factor": ann.rerank_factor, "branches": _encode_pq(ann.pq, arrays)}


def _decode_standalone_pq(metadata: Dict, arrays: Arrays, index, tiered) -> PQIndex:
    branches = _decode_pq(metadata["branches"], arrays)
    return PQIndex(index, branches, rerank_factor=int(metadata["rerank_factor"]))


def _encode_ivf(ann: IVFIndex, arrays: Arrays, include_items: bool) -> Dict:
    arrays["centroids"] = ann.centroids
    arrays["list_indptr"] = ann.list_indptr
    arrays["list_items"] = ann.list_items
    pq_meta = None
    if ann.pq is not None:
        rows = _encode_pq(ann.pq.pq, arrays, prefix="pq.")
        for i, means in enumerate(ann._pq_list_means):
            arrays[f"pq.means{i}"] = means
        pq_meta = {
            "branches": rows,
            "rerank_factor": ann.pq.rerank_factor,
            "residual": True,
        }
    if include_items:
        for i, branch in enumerate(ann._perm_branches):
            arrays[f"perm.branch{i}.item"] = branch.item
            if branch.item_const is not None:
                arrays[f"perm.branch{i}.item_const"] = branch.item_const
    return {
        "n_lists": ann.n_lists,
        "nprobe": ann.nprobe,
        "seed": ann.seed,
        "pq": pq_meta,
        "rerank_factor": ann.rerank_factor,
        "include_items": bool(include_items),
    }


def _decode_ivf(
    metadata: Dict, arrays: Arrays, index, tiered: Optional[TieredIndexConfig]
) -> IVFIndex:
    fields = dict(
        centroids=arrays["centroids"],
        list_indptr=arrays["list_indptr"],
        list_items=arrays["list_items"],
        nprobe=int(metadata["nprobe"]),
        seed=int(metadata["seed"]),
        rerank_factor=int(metadata["rerank_factor"]),
    )
    pq_meta = metadata["pq"]
    if pq_meta is not None:
        if not pq_meta["residual"]:
            raise ValueError(
                "this IVF archive holds non-residual PQ codes, which no reader "
                "scores any more; re-export it with `repro export`"
            )
        branches = _decode_pq(pq_meta["branches"], arrays, prefix="pq.")
        fields["pq"] = PQIndex(
            index, branches, rerank_factor=int(pq_meta["rerank_factor"]), residual=True
        )
        fields["pq_list_means"] = [
            arrays[f"pq.means{i}"] for i in range(len(branches))
        ]
    if tiered is None:
        return IVFIndex(index, **fields)
    perm_items = [
        (arrays[f"perm.branch{i}.item"], arrays.get(f"perm.branch{i}.item_const"))
        for i in range(len(index.branches))
    ]
    return TieredIVFIndex(index, perm_items=perm_items, config=tiered, **fields)


class _Kind(NamedTuple):
    cls: type
    version: int  #: bump when this kind's array layout changes incompatibly
    label: str
    encode: Callable
    decode: Callable


_KINDS: Dict[str, _Kind] = {
    PQ_KIND: _Kind(PQIndex, 1, "a PQ index", _encode_standalone_pq, _decode_standalone_pq),
    IVF_KIND: _Kind(IVFIndex, 4, "an IVF index", _encode_ivf, _decode_ivf),
}


def _kind_of(cls: type) -> str:
    for kind, spec in _KINDS.items():
        if issubclass(cls, spec.cls):
            return kind
    raise TypeError(f"{cls.__name__} is not an ANN index kind")


def save_ann(ann, path: str, format: str = "npz", include_items: bool = False) -> str:
    """Write ``ann`` to ``path`` (what every ``.save`` delegates to)."""
    if format not in ("npz", "dir"):
        raise ValueError(f"format must be 'npz' or 'dir', got {format!r}")
    kind = _kind_of(type(ann))
    if include_items and kind != IVF_KIND:
        raise ValueError("include_items applies to IVF indexes only")
    spec = _KINDS[kind]
    arrays: Arrays = {}
    fields = spec.encode(ann, arrays, include_items)
    metadata = {
        persistence.KIND_KEY: kind,
        "format_version": spec.version,
        "model_name": ann.index.model_name,
        "n_users": ann.n_users,
        "n_items": ann.n_items,
        **fields,
    }
    if format == "dir":
        return persistence.write_archive_dir(path, arrays, metadata)
    return persistence.write_archive(path, arrays, metadata)


def load_ann(
    path: str,
    index,
    mmap: bool = False,
    tiered: Optional[TieredIndexConfig] = None,
    expect: Optional[type] = None,
):
    """Re-attach the saved ANN index ``path`` holds, of whatever kind, to ``index``.

    ``mmap=True`` memory-maps a dir archive's arrays; ``tiered`` opens an
    ``include_items`` IVF dir archive as a :class:`~.tiered.TieredIVFIndex`
    under that config; ``expect`` is the index class the caller requires
    (what ``Cls.load`` passes) — without it any ANN kind is accepted.
    """
    metadata = persistence.read_archive_metadata(path)
    kind = persistence.archive_kind(metadata) if expect is None else _kind_of(expect)
    if kind not in _KINDS:
        raise ValueError(f"{path} holds a {kind!r} artifact, not an ANN index")
    spec = _KINDS[kind]
    persistence.check_header(path, metadata, kind, spec.label, spec.version)
    if metadata["n_items"] != index.n_items or metadata["n_users"] != index.n_users:
        raise ValueError(
            f"{path} holds {spec.label} built for {metadata['n_users']} users x "
            f"{metadata['n_items']} items, not this index's "
            f"{index.n_users} x {index.n_items}"
        )
    if tiered is not None:
        if kind != IVF_KIND:
            raise ValueError(f"tiered loading pages IVF lists; {path} holds {spec.label}")
        if not metadata["include_items"]:
            raise ValueError(
                "tiered loading needs an archive saved with include_items=True "
                "(it holds the permuted item payload the cold tier pages)"
            )
        if not os.path.isdir(path):
            # A zipped .npz cannot be mapped: every "cold" list would be
            # decompressed into RAM while the report books it as paged.
            raise ValueError(
                f"tiered loading needs a directory archive, and {path} is not one; "
                'save it with format="dir", include_items=True'
            )
    arrays = persistence.read_archive_arrays(path, mmap=mmap)
    return spec.decode(metadata, arrays, index, tiered)
