"""Delta IVF builds: append new items to a frozen list layout.

A steady-state catalog update adds a handful of items to a catalog of
thousands; re-running k-means over everything (``build_ivf``: "Build
cost" in docs/performance.md) to place them is the wrong cost
model.  :func:`delta_build` instead *assigns* each new item's combined
vector to the nearest existing centroid (one ``assign_labels`` call —
the same assignment step a full build ends with) and appends it to that
centroid's list.

Why this preserves the exact-search parity the test suite pins: the fine
stage requires item ids *ascending within each list* so its (score desc,
id asc) tie-breaking matches exact selection.  New item ids are strictly
larger than every existing id (the journal enforces contiguous id
allocation), so appending them after a list's existing run keeps every
list sorted — full-probe search over a delta-built index stays
bit-identical to exact search, with zero re-sorting.

A PQ companion has per-list residual codebooks whose anchors (list
means) would shift under appends, so delta builds refuse it with a typed
:class:`DeltaUnsupported` — the controller falls back to a full rebuild
rather than silently degrading ADC precision.

Appending without re-clustering degrades geometry over time: centroids
drift away from their lists' true means and list sizes skew.  Every
delta carries **staleness accounting** — ``appended_since_recluster /
n_items`` — and once it crosses ``staleness_threshold`` the build
escalates to a full :func:`~repro.serving.ann.ivf.build_ivf` re-cluster
(``reclustered=True`` in the stats, counter reset).  The threshold is the
knob that trades steady-state build cost against retrieval quality, and
the recall gate downstream is the backstop if a workload outruns it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..serving.ann.ivf import IVFIndex, build_ivf, combined_item_vectors
from ..serving.ann.kmeans import assign_labels
from ..serving.index import EmbeddingIndex


class DeltaUnsupported(RuntimeError):
    """The previous index's layout cannot be extended incrementally."""


class DeltaMismatch(ValueError):
    """The new index is not a frozen extension of the previous catalog."""


@dataclass(frozen=True)
class DeltaConfig:
    """Delta-build policy.

    ``appended_since_recluster`` is carried by the caller (the version
    manifest) across builds; ``staleness_threshold`` is the fraction of
    the catalog allowed to be append-placed before a forced re-cluster.
    Every build checks that the shared item rows really are unchanged
    (cheap at catalog scale, and the invariant everything else rests on).
    """

    staleness_threshold: float = 0.25
    appended_since_recluster: int = 0


@dataclass
class DeltaStats:
    n_new_items: int = 0
    appended_since_recluster: int = 0
    staleness: float = 0.0
    reclustered: bool = False
    lists_touched: int = 0


def delta_build(
    prev: IVFIndex,
    new_index: EmbeddingIndex,
    config: Optional[DeltaConfig] = None,
) -> Tuple[IVFIndex, DeltaStats]:
    """Extend ``prev``'s list layout to cover ``new_index``'s catalog.

    ``new_index`` must be a frozen extension of ``prev.index`` — same
    branches with the first ``prev.n_items`` item rows unchanged (what
    :func:`~repro.lifecycle.foldin.fold_in` produces).  Returns a new
    :class:`IVFIndex` over ``new_index`` plus the staleness accounting;
    when accumulated appends cross ``staleness_threshold`` the result is
    a full re-cluster instead (``stats.reclustered``).  Deterministic
    either way.
    """
    config = config or DeltaConfig()
    stats = DeltaStats()

    if prev.pq is not None:
        raise DeltaUnsupported(
            "the previous index carries a residual-PQ companion; its per-list "
            "codebook anchors cannot absorb appended items — run a full rebuild"
        )
    n_old = prev.n_items
    n_new = new_index.n_items - n_old
    if n_new < 0:
        raise DeltaMismatch(
            f"new index has {new_index.n_items} items, fewer than the previous "
            f"index's {n_old} — delta builds only grow the catalog"
        )
    if len(new_index.branches) != len(prev.index.branches):
        raise DeltaMismatch("branch count changed; not a frozen extension")
    for b, (old_b, new_b) in enumerate(zip(prev.index.branches, new_index.branches)):
        if not np.array_equal(np.asarray(old_b.item), np.asarray(new_b.item)[:n_old]):
            raise DeltaMismatch(
                f"branch {b} item factors of the shared catalog changed; "
                "delta builds require the existing rows to stay frozen"
            )

    stats.n_new_items = n_new
    appended = config.appended_since_recluster + n_new
    staleness = appended / max(1, new_index.n_items)

    if staleness > config.staleness_threshold:
        # Escalate: the append-placed fraction is large enough that the
        # frozen centroids no longer describe the catalog.  Re-cluster
        # from scratch with the previous build's settings — its operating
        # point included — and reset the staleness counter.
        rebuilt = build_ivf(
            new_index,
            n_lists=None,  # re-derive from the grown catalog size
            nprobe=prev.nprobe,  # clipped to the new list count
            seed=prev.seed,
            rerank_factor=prev.rerank_factor,
        )
        stats.reclustered = True
        stats.appended_since_recluster = 0
        stats.staleness = 0.0
        stats.lists_touched = rebuilt.n_lists
        return rebuilt, stats

    stats.appended_since_recluster = appended
    stats.staleness = staleness

    # ------------------------------------------------------------------
    # Assign each new item's combined vector to its nearest centroid.
    # ------------------------------------------------------------------
    if n_new:
        vectors = combined_item_vectors(new_index.branches, start=n_old)
        if vectors.shape[1] != prev.centroids.shape[1]:
            raise DeltaMismatch(
                f"combined item dimension {vectors.shape[1]} disagrees with the "
                f"previous centroids' {prev.centroids.shape[1]}"
            )
        labels, _ = assign_labels(vectors, prev.centroids)
    else:
        labels = np.empty(0, dtype=np.int64)

    # Splice the new ids into the list-contiguous permutation.  Within a
    # list the old run keeps its order and the new ids (all larger than
    # every old id) append in ascending order — ids stay ascending per
    # list, the parity invariant.
    n_lists = prev.n_lists
    new_counts = np.bincount(labels, minlength=n_lists)
    old_counts = np.diff(prev.list_indptr)
    counts = old_counts + new_counts
    indptr = np.zeros(n_lists + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    list_items = np.empty(new_index.n_items, dtype=np.int64)
    new_ids = n_old + np.arange(n_new, dtype=np.int64)
    for lst in range(n_lists):
        lo = int(indptr[lst])
        old_lo, old_hi = int(prev.list_indptr[lst]), int(prev.list_indptr[lst + 1])
        width_old = old_hi - old_lo
        list_items[lo : lo + width_old] = prev.list_items[old_lo:old_hi]
        appended_here = new_ids[labels == lst]
        list_items[lo + width_old : lo + width_old + len(appended_here)] = appended_here
    stats.lists_touched = int((new_counts > 0).sum())

    nprobe = min(prev.nprobe, n_lists)
    rebuilt = IVFIndex(
        new_index,
        centroids=prev.centroids,
        list_indptr=indptr,
        list_items=list_items,
        nprobe=nprobe,
        seed=prev.seed,
        rerank_factor=prev.rerank_factor,
    )
    return rebuilt, stats
