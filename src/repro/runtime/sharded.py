"""Item-range sharding of a frozen factorization, with exact top-K merge.

A :class:`ShardedIndex` partitions the item catalog of an
:class:`~repro.serving.index.EmbeddingIndex` (or a raw list of
:class:`~repro.scoring.ScoreBranch` factors) into contiguous ranges.
Full-catalog top-K for a chunk of users is computed shard by shard —
score the shard, mask exclusions that fall inside it, select the local
top-K — and the per-shard candidates merge through
:func:`repro.eval.topk.topk_pairs_rows`, the same deterministic
(score desc, item id asc) order the unsharded kernel uses.

Exactness: every global top-K item is inside its own shard's local top-K
(selection is monotone under the lexicographic order), so the merged
result is bit-identical to single-pass selection — including tie-breaking
across shard boundaries, which the test suite pins with crafted
integer-score factorizations.

The layout is not an option: every index splits its catalog into
``ceil(n_items / ITEM_BLOCK_SIZE)`` shards, reading the module constant when
it is built, and every call ranks its rows ``ROW_BLOCK`` at a time (tests
monkeypatch both).  The layout decides memory and wall time, never a result.

Scores do not depend on batch height or batch-mates either: every shard
product runs at :func:`~repro.scoring.gemm_rows` height, so a row gets
the same bits in any batch.

All scoring happens in the branches' own dtype (a float32 index is scored
in float32 memory) into caller-provided buffers, so a worker evaluates
arbitrarily many chunks with zero per-chunk score-matrix allocations.

With a ``tracer``, every shard of every row block records a
``chunk.score`` and a ``chunk.topk`` span, and every multi-shard block a
``chunk.merge`` span; they are the evaluator's ``score`` / ``topk`` /
``merge`` phases.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..eval.topk import NEG_INF, denied_rows, masked_topk, topk_indices_rows, topk_pairs_rows
from ..obs.trace import maybe_span
from ..scoring import ScoreBranch, branches_dtype, expand_csr_rows, gemm_cols, gemm_rows, score_branches

#: widest shard: every exact ranking scores a ``ROW_BLOCK x 8192`` block at most
ITEM_BLOCK_SIZE = 8192

#: open rows ranked per pass: a multiple of every ``ROW_MULTIPLE`` candidate,
#: so a full block over a full-width shard needs no padding rows
ROW_BLOCK = 96


def shard_ranges(n_items: int, n_shards: int) -> List[Tuple[int, int]]:
    """Balanced contiguous ``[start, stop)`` item ranges (no empty shards)."""
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, n_items)
    bounds = [(shard * n_items) // n_shards for shard in range(n_shards + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(n_shards)]


class _Buffers:
    """Preallocated score buffers for one worker (grown on demand).

    ``scratch`` (the per-branch accumulator :func:`score_branches` needs for
    multi-branch factorizations) is only allocated when asked for —
    single-branch models never pay for a second buffer.  Independent
    ``slot`` names keep differently-shaped consumers (the shard-width main
    pass vs the full-width candidate path) from thrashing each other's
    allocation.  Buffers are :func:`~repro.scoring.gemm_rows` by
    :func:`~repro.scoring.gemm_cols`, the shape :func:`score_branches` runs at.
    """

    def __init__(self) -> None:
        self._slots: dict = {}

    def get(
        self,
        rows: int,
        width: int,
        dtype: np.dtype,
        with_scratch: bool = True,
        slot: str = "main",
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        rows, cols = gemm_rows(rows, width), gemm_cols(width)
        out, scratch = self._slots.get(slot, (None, None))
        if out is None or out.dtype != dtype or out.shape[0] < rows or out.shape[1] < cols:
            out = np.empty((rows, cols), dtype=dtype)
            scratch = None
        if with_scratch and scratch is None:
            scratch = np.empty_like(out)
        self._slots[slot] = (out, scratch)
        return out, scratch


class ShardedIndex:
    """A frozen factorization split into contiguous item-range shards."""

    def __init__(self, source: Union["EmbeddingIndex", Sequence[ScoreBranch]]) -> None:
        branches = getattr(source, "branches", source)
        if not branches:
            raise ValueError("a sharded index needs at least one score branch")
        self.branches: List[ScoreBranch] = list(branches)
        self.n_items = self.branches[0].item.shape[0]
        self.n_users = self.branches[0].user.shape[0]
        self.ranges = shard_ranges(self.n_items, -(-self.n_items // ITEM_BLOCK_SIZE))
        self.dtype = branches_dtype(self.branches)

    @property
    def max_shard_width(self) -> int:
        return max(stop - start for start, stop in self.ranges)

    # ------------------------------------------------------------------
    def topk_chunk(
        self,
        users: np.ndarray,
        k: int,
        exclude_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        candidate_items: Optional[Sequence[Optional[np.ndarray]]] = None,
        buffers: Optional[_Buffers] = None,
        with_scores: bool = False,
        tracer=None,
        candidate_mask: Optional[np.ndarray] = None,
        mask_rows: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Exact top-``k`` item ids (and optionally scores) for a user chunk.

        ``exclude_csr`` is the ``(indptr, indices)`` train-positive mask
        (global item ids, ascending per user); ``candidate_items`` — one
        optional allowed-id array per chunk user — restricts pools the way
        the cold-start protocols do, and routes those rows through the
        per-row :func:`masked_topk` reference kernel.  ``candidate_mask`` is
        the serving filters' boolean allow-mask: either one ``(n_items,)``
        mask for every row, or an ``(n_masks, n_items)`` stack with
        ``mask_rows`` naming each row's mask; each shard masks its block
        with its rows' slices of the stack, so no ``(rows, n_items)`` mask
        is ever built.  It cannot be combined with ``candidate_items``.
        ``tracer`` records the ``chunk.score`` / ``chunk.topk`` /
        ``chunk.merge`` spans (module docstring).
        """
        users = np.asarray(users, dtype=np.int64)
        rows = len(users)
        k = min(int(k), self.n_items)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if rows == 0:
            empty = np.empty((0, k), dtype=np.int64)
            return (empty, np.empty((0, k), dtype=self.dtype)) if with_scores else (empty, None)
        if candidate_mask is not None and candidate_items is not None:
            raise ValueError("candidate_mask and candidate_items are mutually exclusive")
        denied, mask_rows = denied_rows(candidate_mask, mask_rows, rows)
        buffers = buffers or _Buffers()

        # Rows with a restricted pool go through the reference kernel only —
        # ranking them in the main pass would be thrown-away work (in a
        # cold-start protocol *every* row is restricted).
        restricted = (
            [row for row, cand in enumerate(candidate_items) if cand is not None]
            if candidate_items is not None
            else []
        )
        open_rows = (
            np.arange(rows)
            if not restricted
            else np.setdiff1d(np.arange(rows), restricted, assume_unique=True)
        )

        ids = np.full((rows, k), -1, dtype=np.int64)
        scores = np.full((rows, k), NEG_INF, dtype=self.dtype) if with_scores else None
        for first in range(0, len(open_rows), ROW_BLOCK):
            block = open_rows[first : first + ROW_BLOCK]
            exclude_rows = exclude_cols = None
            if exclude_csr is not None:
                exclude_rows, exclude_cols = expand_csr_rows(*exclude_csr, users[block])
            block_denied = None if denied is None else (denied, mask_rows[block])
            block_ids, block_scores = self._topk_sharded(
                users[block], k, exclude_rows, exclude_cols, block_denied, buffers, tracer,
                with_scores,
            )
            ids[block] = block_ids
            if with_scores:
                scores[block] = block_scores

        if restricted:
            self._apply_candidates(
                users, k, candidate_items, exclude_csr, ids, scores, buffers, restricted,
                tracer,
            )
        return ids, scores

    # ------------------------------------------------------------------
    def _topk_sharded(
        self, users, k, exclude_rows, exclude_cols, denied, buffers, tracer, with_scores
    ):
        rows = len(users)
        out, scratch = buffers.get(
            rows, self.max_shard_width, self.dtype, with_scratch=len(self.branches) > 1
        )
        candidate_ids: List[np.ndarray] = []
        candidate_scores: List[np.ndarray] = []
        for start, stop in self.ranges:
            with maybe_span(tracer, "chunk.score", cat="runtime"):
                scores = score_branches(self.branches, users, start, stop, out=out, scratch=scratch)
                if denied is not None:
                    stack, stack_rows = denied
                    scores[stack[stack_rows, start:stop]] = NEG_INF
                if exclude_rows is not None:
                    inside = (exclude_cols >= start) & (exclude_cols < stop)
                    if inside.any():
                        scores[exclude_rows[inside], exclude_cols[inside] - start] = NEG_INF
            with maybe_span(tracer, "chunk.topk", cat="runtime"):
                local = topk_indices_rows(scores, min(k, stop - start))
                candidate_ids.append(local + start)
                candidate_scores.append(np.take_along_axis(scores, local, axis=1))
        if len(self.ranges) == 1:  # the one shard's local top-K is the answer
            top = candidate_ids[0].astype(np.int64, copy=False)
            return top, candidate_scores[0] if with_scores else None
        with maybe_span(tracer, "chunk.merge", cat="runtime"):
            ids = np.hstack(candidate_ids)
            values = np.hstack(candidate_scores)
            merged = topk_pairs_rows(ids, values, k)
            top = np.take_along_axis(ids, merged, axis=1).astype(np.int64, copy=False)
            top_scores = np.take_along_axis(values, merged, axis=1) if with_scores else None
        return top, top_scores

    def _apply_candidates(
        self, users, k, candidate_items, exclude_csr, ids, scores, buffers, restricted, tracer
    ):
        """Rank rows with restricted pools through the reference kernel.

        Candidate pools are per-user and typically tiny (cold-start
        protocols), so these rows go through :func:`masked_topk` on a
        full-range score row — the exact semantics the serial evaluator has
        always had, unchanged by sharding or parallelism.  Restricted rows
        are scored in small sub-batches so this path never materializes
        more than ``64 x n_items`` scores, regardless of ``user_chunk``
        (note it is full catalog width, not shard width: the reference
        kernel masks a complete row).
        """
        for batch_start in range(0, len(restricted), 64):
            batch = restricted[batch_start : batch_start + 64]
            rows = np.asarray(batch)
            out, scratch = buffers.get(
                len(rows), self.n_items, self.dtype,
                with_scratch=len(self.branches) > 1, slot="full",
            )
            with maybe_span(tracer, "chunk.score", cat="runtime"):
                full = score_branches(self.branches, users[rows], out=out, scratch=scratch)
            with maybe_span(tracer, "chunk.topk", cat="runtime"):
                for position, row in enumerate(batch):
                    exclude = None
                    if exclude_csr is not None:
                        indptr, indices = exclude_csr
                        user = users[row]
                        exclude = indices[indptr[user] : indptr[user + 1]]
                    top = masked_topk(
                        full[position],
                        k,
                        exclude_items=exclude if exclude is not None and len(exclude) else None,
                        candidate_items=candidate_items[row],
                    )
                    ids[row, : len(top)] = top
                    if scores is not None:
                        # Report the *masked* scores, matching the unrestricted
                        # paths: selections past the allowed pool (or excluded)
                        # are -inf, never the raw model score.
                        allowed = np.isin(top, candidate_items[row])
                        if exclude is not None and len(exclude):
                            allowed &= ~np.isin(top, exclude)
                        scores[row, : len(top)] = np.where(
                            allowed, full[position, top], NEG_INF
                        )
