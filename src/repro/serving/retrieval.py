"""Batched top-K retrieval over a frozen :class:`EmbeddingIndex`.

There is one path: :meth:`RetrievalEngine.topk_rows` hands the batch, at
its largest ``k`` and with one filter mask per row, to
:meth:`repro.runtime.sharded.ShardedIndex.topk_chunk` — the kernel the
offline evaluator, ``recommend_all`` and the lifecycle gates rank with —
and trims each dense row to its own ``k`` and the items its masks allow
(:meth:`~RetrievalEngine.topk` is the every-row-alike case).  Offline
metrics and online results therefore cannot disagree on ranking: they are
the same code on the same scores.

The catalog is split into ``ceil(n_items / ITEM_BLOCK_SIZE)`` balanced
contiguous shards (see :mod:`repro.runtime.sharded`) and the batch into
blocks of ``ROW_BLOCK`` rows; each block streams through one
``(rows, dim) @ (dim, shard)`` product per shard, masked, reduced to
per-user candidates and merged exactly.  That keeps the item-side operand
cache-resident at large catalog sizes and bounds peak memory at
``ROW_BLOCK * ITEM_BLOCK_SIZE`` scores at any batch size.  Products run at
:func:`~repro.scoring.gemm_rows` height and
:func:`~repro.scoring.gemm_cols` width: a request's scores do not depend
on batch height, batch-mates or item layout.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..arrays import sorted_unique
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
    :class:`~repro.serving.ann.IVFIndex` built over the same catalog.  With
    one attached, :meth:`topk_rows` routes through the ANN's two-stage
    search — filters and train-item exclusions apply at the re-rank stage,
    so a filtered request is ranked over exactly the items its masks allow,
    just from a cluster-pruned candidate pool instead of the full catalog.
    Per-request opt-out (``use_ann=False``) keeps the exact path one
    argument away.

    Results never contain a masked item: a user whose allowed pool is
    smaller than ``k`` gets a shorter list.

    ANN failure degrades, it never errors: a transient exception from
    ``ann.search`` (including an injected ``ann.search_error`` fault from an
    attached :class:`~repro.faults.FaultPlan`) makes :meth:`topk_rows` fall
    back to the exact path for that batch — the results are the ones the
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
        """Top-``k`` recommendations for a batch of warm users, one filter set
        for all of them (:meth:`topk_rows` with every row alike; a filter
        that cannot be evaluated raises)."""
        results = self.topk_rows(users, k, [filters] * len(users), exclude_train, use_ann)
        for result in results:
            if isinstance(result, Exception):
                raise result
        return results

    def topk_rows(
        self,
        users: Sequence[int],
        ks: Union[int, Sequence[int]],
        row_filters: Sequence[Sequence[Filter]],
        exclude_train: bool = True,
        use_ann: Optional[bool] = None,
    ) -> List[Union[RetrievalResult, Exception]]:
        """Top-``ks[i]`` for each warm user ``users[i]``, under its own filters.

        ``ks`` is one ``k`` per row, or one ``k`` for every row.  One kernel
        call ranks every row at ``max(ks)``; each answer is then trimmed to
        its own ``k``.  Both kernels rank by the (score desc, item id asc)
        order, so a row's top-``k`` is the first ``k`` of its top-``max(ks)``,
        bits included.  An ANN whose ``default_scorer`` is ``"pq"`` breaks
        that: its per-list shortlist is ``rerank_factor * k``, so a row
        ranked at a larger ``k`` re-ranks a larger pool and may answer
        differently — under PQ, each distinct ``k`` gets its own kernel call.

        ``row_filters`` holds one filter set per row; rows sharing a
        signature share one cached mask, built once per call.  A filter set
        whose mask raises (an out-of-range id, a raw-price band on an index
        without raw prices) fails only its own rows: their entries are the
        exception, *returned*, not raised, and the other rows are ranked.

        ``use_ann`` overrides the engine default (``None`` = use the
        attached ANN index when there is one): ``False`` forces the exact
        path for this call, ``True`` requires an ANN index.
        """
        users = np.asarray(users, dtype=np.int64)
        ks = np.asarray(ks, dtype=np.int64)
        if ks.size and ks.min() < 1:
            raise ValueError(f"k must be >= 1, got {int(ks.min())}")
        if ks.ndim and ks.shape != users.shape:
            raise ValueError(f"{len(ks)} ks for {len(users)} users")
        ks = np.broadcast_to(ks, users.shape)
        if len(row_filters) != len(users):
            raise ValueError(f"{len(row_filters)} filter sets for {len(users)} users")
        if len(users) == 0:
            return []
        if users.min() < 0 or users.max() >= self.index.n_users:
            raise ValueError(
                f"user id out of range [0, {self.index.n_users}); "
                "route unseen users through the cold-start fallback"
            )
        if use_ann is None:
            use_ann = self.ann is not None
        if use_ann and self.ann is None:
            raise ValueError("use_ann=True but no ANN index is attached")
        results: List[Union[RetrievalResult, Exception, None]] = [None] * len(users)
        mask, mask_rows = self._row_masks(row_filters, results)
        ok = np.flatnonzero([result is None for result in results])
        if use_ann and getattr(self.ann, "default_scorer", None) == "pq":
            parts = [ok[ks[ok] == k] for k in sorted_unique(ks[ok])]
        else:
            parts = [ok] if len(ok) else []
        for rows in parts:
            ranked = self._rank(
                users[rows], ks[rows], exclude_train, mask,
                None if mask_rows is None else mask_rows[rows], use_ann,
            )
            for row, result in zip(rows, ranked):
                results[row] = result
        return results

    def _rank(self, users, ks, exclude_train, mask, mask_rows, use_ann) -> List[RetrievalResult]:
        """One kernel call for a batch at ``max(ks)``: the ANN when asked,
        the exact path when not or when the ANN fails transiently."""
        k = int(ks.max())
        if use_ann:
            try:
                if self.fault_plan is not None:
                    self.fault_plan.maybe_fail(ANN_SEARCH_ERROR)
                with maybe_span(
                    self.tracer, "engine.topk", cat="retrieval",
                    attrs={"path": "ann", "n_users": len(users), "k": k},
                ):
                    return self._search(
                        self.ann.search, users, ks, exclude_train, mask, mask_rows,
                        tracer=self.tracer,
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
                self._sharded.topk_chunk, users, ks, exclude_train, mask, mask_rows,
                with_scores=True,
            )

    def _row_masks(
        self, row_filters: Sequence[Sequence[Filter]], results: List
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """``(n_signatures, n_items)`` allow-mask stack and each row's index
        into it, one cached mask per distinct filter signature; ``(None,
        None)`` when no row is filtered.  A signature whose mask raises
        puts the exception in ``results`` at each of its rows instead."""
        if not any(row_filters):
            return None, None
        slots: Dict[Tuple, Union[int, Exception]] = {}
        masks: List[np.ndarray] = []
        rows = np.zeros(len(row_filters), dtype=np.intp)
        for row, filters in enumerate(row_filters):
            signature = combine_signature(filters)
            slot = slots.get(signature)
            if slot is None:
                try:
                    mask = self.candidate_mask(filters)
                except Exception as error:  # noqa: BLE001 - fails its own rows
                    slot = error
                else:
                    slot = len(masks)
                    masks.append(np.ones(self.index.n_items, dtype=bool) if mask is None else mask)
                slots[signature] = slot
            if isinstance(slot, Exception):
                results[row] = slot
            else:
                rows[row] = slot
        if not masks:
            return None, None
        return np.stack(masks), rows

    def _search(
        self, kernel, users, ks, exclude_train, mask, mask_rows, **kwargs
    ) -> List[RetrievalResult]:
        """Run a dense top-K kernel at ``max(ks)`` under the rows' masks; trim
        each row to its own ``k``, then drop its padding.

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
            users, int(ks.max()), exclude_csr=exclude_csr,
            candidate_mask=mask, mask_rows=mask_rows, **kwargs,
        )
        results = []
        for row, k in enumerate(ks):
            row_ids, row_scores = ids[row, :k], scores[row, :k]
            keep = row_scores > -np.inf
            results.append(RetrievalResult(items=row_ids[keep], scores=row_scores[keep]))
        return results

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
