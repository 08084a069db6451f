"""Batched top-K retrieval over a frozen :class:`EmbeddingIndex`.

There is one exact path: :meth:`RetrievalEngine.topk` hands the batch to
:meth:`repro.runtime.sharded.ShardedIndex.topk_chunk` — the kernel the
offline evaluator, ``recommend_all`` and the lifecycle gates rank with —
and trims its dense rows to the items the masks allow.  Offline metrics
and online results therefore cannot disagree on ranking: they are the same
code on the same scores.

The catalog is split into ``ceil(n_items / ITEM_BLOCK_SIZE)`` balanced
contiguous shards (see :mod:`repro.runtime.sharded`) and the batch into
blocks of ``ROW_BLOCK`` rows; each block streams through one
``(rows, dim) @ (dim, shard)`` product per shard, masked, reduced to
per-user candidates and merged exactly.  That keeps the item-side operand
cache-resident at large catalog sizes and bounds peak memory at
``ROW_BLOCK * ITEM_BLOCK_SIZE`` scores at any batch size.  Products run at
:func:`~repro.core.base.gemm_rows` height and
:func:`~repro.core.base.gemm_cols` width: a request's scores do not depend
on batch height, batch-mates or item layout.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..eval.topk import masked_topk
from ..faults import ANN_SEARCH_ERROR
from ..obs.trace import maybe_span
from ..runtime.sharded import ShardedIndex
from .filters import Filter, combine_mask, combine_signature
from .index import EmbeddingIndex
from .resilience import is_transient


@dataclass
class RetrievalResult:
    """Ranked items (best first) and their model scores for one user."""

    items: np.ndarray
    scores: np.ndarray


class RetrievalEngine:
    """Scores users against the catalog and selects top-K under masks.

    ``mask_cache_capacity`` bounds the per-filter-signature mask cache:
    services commonly see a small set of recurring filter combinations
    (storefront tabs, price bands) plus a long tail of one-off per-request
    lists (stock-outs, personal deny lists); LRU keeps the former hot
    without letting the latter grow memory forever.

    ``ann`` opts the engine into approximate retrieval: an
    :class:`~repro.serving.ann.IVFIndex` built over the same catalog.  With one attached, :meth:`topk` routes through the ANN's
    two-stage search — filters and train-item exclusions apply at the
    re-rank stage, so a filtered request is ranked over exactly the items
    its masks allow, just from a cluster-pruned candidate pool instead of
    the full catalog.  Per-request opt-out (``use_ann=False``) keeps the
    exact path one argument away.

    Results never contain a masked item: a user whose allowed pool is
    smaller than ``k`` gets a shorter list.

    ANN failure degrades, it never errors: a transient exception from
    ``ann.search`` (including an injected ``ann.search_error`` fault from an
    attached :class:`~repro.faults.FaultPlan`) makes :meth:`topk` fall back
    to the exact path for that batch — the results are the ones the
    exact engine would have served anyway, so the fallback is bit-identical
    correct, just slower.  ``on_ann_fallback`` (an ``error -> None``
    callable) observes each fallback; without one a ``RuntimeWarning`` is
    emitted so real ANN breakage is never silent.
    """

    def __init__(
        self,
        index: EmbeddingIndex,
        mask_cache_capacity: int = 256,
        ann=None,
        tracer=None,
        fault_plan=None,
        on_ann_fallback=None,
    ) -> None:
        if ann is not None and ann.n_items != index.n_items:
            raise ValueError(
                f"ann index covers {ann.n_items} items but the embedding index "
                f"has {index.n_items}; rebuild the ann index from this catalog"
            )
        self.index = index
        self.ann = ann
        self.tracer = tracer
        self.fault_plan = fault_plan
        self.on_ann_fallback = on_ann_fallback
        self.ann_fallbacks = 0
        self._sharded = ShardedIndex(index)
        self.mask_cache_capacity = mask_cache_capacity
        self._mask_cache: "OrderedDict[Tuple, Tuple[Optional[np.ndarray], np.ndarray]]" = OrderedDict()

    # ------------------------------------------------------------------
    def _masks_for(self, filters: Sequence[Filter]) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """(bool mask, allowed ids) for a filter set, LRU-cached together."""
        if not filters:
            return None, None
        key = combine_signature(filters)
        hit = self._mask_cache.get(key)
        if hit is None:
            mask = combine_mask(filters, self.index)
            hit = (mask, np.flatnonzero(mask))
            if self.mask_cache_capacity > 0:
                self._mask_cache[key] = hit
                while len(self._mask_cache) > self.mask_cache_capacity:
                    self._mask_cache.popitem(last=False)
        else:
            self._mask_cache.move_to_end(key)
        return hit

    def candidate_mask(self, filters: Sequence[Filter]) -> Optional[np.ndarray]:
        """Intersected boolean item mask for a filter set (cached)."""
        return self._masks_for(filters)[0]

    def candidate_items(self, filters: Sequence[Filter]) -> Optional[np.ndarray]:
        """Allowed item ids for a filter set (cached; ``None`` = everything)."""
        return self._masks_for(filters)[1]

    def invalidate_masks(self) -> None:
        """Drop cached filter masks (call after catalog-affecting changes)."""
        self._mask_cache.clear()

    # ------------------------------------------------------------------
    def topk(
        self,
        users: Sequence[int],
        k: int,
        exclude_train: bool = True,
        filters: Sequence[Filter] = (),
        use_ann: Optional[bool] = None,
    ) -> List[RetrievalResult]:
        """Top-``k`` recommendations for a batch of warm users.

        ``use_ann`` overrides the engine default (``None`` = use the
        attached ANN index when there is one): ``False`` forces the exact
        path for this call, ``True`` requires an ANN index.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        users = np.asarray(users, dtype=np.int64)
        if len(users) == 0:
            return []
        if users.min() < 0 or users.max() >= self.index.n_users:
            raise ValueError(
                f"user id out of range [0, {self.index.n_users}); "
                "route unseen users through the cold-start fallback"
            )
        if use_ann is None:
            use_ann = self.ann is not None
        if use_ann:
            if self.ann is None:
                raise ValueError("use_ann=True but no ANN index is attached")
            try:
                if self.fault_plan is not None:
                    self.fault_plan.maybe_fail(ANN_SEARCH_ERROR)
                with maybe_span(
                    self.tracer, "engine.topk", cat="retrieval",
                    attrs={"path": "ann", "n_users": len(users), "k": k},
                ):
                    return self._search(
                        self.ann.search, users, k, exclude_train, filters, tracer=self.tracer
                    )
            except Exception as error:
                if not is_transient(error):
                    raise
                self._note_ann_fallback(error)
                # fall through: serve this batch from the exact path
        with maybe_span(
            self.tracer, "engine.topk", cat="retrieval",
            attrs={"path": "exact", "n_users": len(users), "k": k},
        ):
            return self._search(
                self._sharded.topk_chunk, users, k, exclude_train, filters, with_scores=True
            )

    def _search(self, kernel, users, k, exclude_train, filters, **kwargs) -> List[RetrievalResult]:
        """Run a dense top-K kernel under the request's masks; trim its rows.

        Both kernels pad a row whose allowed pool is shorter than ``k``: the
        ANN search with id ``-1`` / score ``-inf``, the exact kernel with
        masked ids at score ``-inf``.  Padding is dropped here.  (A
        legitimate item whose own score is ``-inf`` is indistinguishable
        from a masked one and is dropped too.)
        """
        exclude_csr = (
            (self.index.exclude_indptr, self.index.exclude_indices) if exclude_train else None
        )
        ids, scores = kernel(
            users, k, exclude_csr=exclude_csr,
            candidate_mask=self.candidate_mask(filters), **kwargs,
        )
        keep = scores > -np.inf
        return [
            RetrievalResult(items=ids[row][keep[row]], scores=scores[row][keep[row]])
            for row in range(len(ids))
        ]

    def _note_ann_fallback(self, error: BaseException) -> None:
        self.ann_fallbacks += 1
        if self.on_ann_fallback is not None:
            self.on_ann_fallback(error)
        else:
            import warnings

            warnings.warn(
                f"ANN search failed ({error!r}); serving this batch via exact search",
                RuntimeWarning,
                stacklevel=3,
            )

    def topk_from_scores(
        self,
        scores: np.ndarray,
        k: int,
        exclude_items: Optional[np.ndarray] = None,
        filters: Sequence[Filter] = (),
    ) -> RetrievalResult:
        """Top-``k`` from an externally produced score row (fallback path)."""
        candidates = self.candidate_items(filters)
        top = masked_topk(
            scores,
            k,
            exclude_items=exclude_items if exclude_items is not None and len(exclude_items) else None,
            candidate_items=candidates,
            drop_masked=True,
        )
        # Scores stay in their own dtype: an f32 index must never pay an
        # f64 copy on the request path (non-float input still coerces).
        scores = np.asarray(scores)
        if scores.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            scores = scores.astype(np.float64)
        return RetrievalResult(items=top, scores=scores[top])
