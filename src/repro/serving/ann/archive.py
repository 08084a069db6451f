"""What an IVF index looks like on disk — one writer, one reader.

An archive (a :mod:`repro.train.persistence` directory) holds the
index's *own* arrays plus a header: ``kind``, ``format_version``, and the
``model_name`` / ``n_users`` / ``n_items`` of the source index it must be
re-attached to.  An IVF-PQ archive embeds its residual PQ companion under
``pq.``.  There are no legacy readers: an archive of another kind or format
version is refused ("re-export").
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ...train import persistence
from .ivf import IVFIndex
from .pq import PQBranch
from .tiered import TieredIndexConfig, TieredIVFIndex

IVF_KIND = "ivf_index"
#: bump when the array layout changes incompatibly
IVF_VERSION = 4
_LABEL = "an ANN index"

Arrays = Dict[str, np.ndarray]


def _encode_pq(branches: List[PQBranch], arrays: Arrays) -> List[Dict]:
    """Store codes, codebooks and rotations; returns the per-branch header rows."""
    rows = []
    for i, pb in enumerate(branches):
        arrays[f"pq.branch{i}.codes"] = pb.codes
        for m, cb in enumerate(pb.codebooks):
            arrays[f"pq.branch{i}.codebook{m}"] = cb
        if pb.rotation is not None:
            arrays[f"pq.branch{i}.rotation"] = pb.rotation
        rows.append(
            {
                "n_subspaces": pb.n_subspaces,
                "splits": [[int(lo), int(hi)] for lo, hi in pb.splits],
                "rotation": pb.rotation is not None,
            }
        )
    return rows


def _decode_pq(rows: List[Dict], arrays: Arrays) -> List[PQBranch]:
    return [
        PQBranch(
            codebooks=[
                np.asarray(arrays[f"pq.branch{i}.codebook{m}"], dtype=np.float64)
                for m in range(int(row["n_subspaces"]))
            ],
            codes=np.ascontiguousarray(arrays[f"pq.branch{i}.codes"]),
            rotation=(
                np.asarray(arrays[f"pq.branch{i}.rotation"], dtype=np.float64)
                if row["rotation"]
                else None
            ),
            splits=[(int(lo), int(hi)) for lo, hi in row["splits"]],
        )
        for i, row in enumerate(rows)
    ]


def save_ann(ann: IVFIndex, path: str, include_items: bool = False) -> str:
    """Write ``ann`` to ``path`` (what :meth:`IVFIndex.save` delegates to)."""
    arrays: Arrays = {
        "centroids": ann.centroids,
        "list_indptr": ann.list_indptr,
        "list_items": ann.list_items,
    }
    pq_meta = None
    if ann.pq is not None:
        rows = _encode_pq(ann.pq, arrays)
        for i, means in enumerate(ann._pq_list_means):
            arrays[f"pq.means{i}"] = means
        # ``residual`` is always true; it stays so the reader can refuse
        # the raw-code companions older writers produced.
        pq_meta = {"branches": rows, "rerank_factor": ann.rerank_factor, "residual": True}
    if include_items:
        # the list-ordered payload a tiered reader pages, gathered here
        for i, branch in enumerate(ann.index.branches):
            arrays[f"perm.branch{i}.item"] = branch.item[ann.list_items]
            if branch.item_const is not None:
                arrays[f"perm.branch{i}.item_const"] = branch.item_const[ann.list_items]
    metadata = {
        persistence.KIND_KEY: IVF_KIND,
        "format_version": IVF_VERSION,
        "model_name": ann.index.model_name,
        "n_users": ann.n_users,
        "n_items": ann.n_items,
        "n_lists": ann.n_lists,
        "nprobe": ann.nprobe,
        "seed": ann.seed,
        "pq": pq_meta,
        "rerank_factor": ann.rerank_factor,
        "include_items": bool(include_items),
    }
    return persistence.write_archive(path, arrays, metadata)


def load_ann(
    path: str,
    index,
    mmap: bool = False,
    tiered: Optional[TieredIndexConfig] = None,
) -> IVFIndex:
    """Re-attach the saved IVF index ``path`` holds to ``index``.

    ``mmap=True`` memory-maps the archive's arrays; ``tiered`` opens an
    ``include_items`` archive as a :class:`~.tiered.TieredIVFIndex` under
    that config.
    """
    metadata = persistence.read_archive_metadata(path)
    persistence.check_header(path, metadata, IVF_KIND, _LABEL, IVF_VERSION)
    if metadata["n_items"] != index.n_items or metadata["n_users"] != index.n_users:
        raise ValueError(
            f"{path} holds {_LABEL} built for {metadata['n_users']} users x "
            f"{metadata['n_items']} items, not this index's "
            f"{index.n_users} x {index.n_items}"
        )
    if tiered is not None and not metadata["include_items"]:
        raise ValueError(
            "tiered loading needs an archive saved with include_items=True "
            "(it holds the list-ordered item payload the cold tier pages)"
        )
    arrays = persistence.read_archive_arrays(path, mmap=mmap)
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
        fields["pq"] = _decode_pq(pq_meta["branches"], arrays)
        fields["pq_list_means"] = [
            arrays[f"pq.means{i}"] for i in range(len(pq_meta["branches"]))
        ]
    if tiered is None:
        return IVFIndex(index, **fields)
    perm_items = [
        (arrays[f"perm.branch{i}.item"], arrays.get(f"perm.branch{i}.item_const"))
        for i in range(len(index.branches))
    ]
    return TieredIVFIndex(index, perm_items=perm_items, config=tiered, **fields)
