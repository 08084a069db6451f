"""The masked top-K selection kernel shared by evaluation and serving.

Both the offline evaluator (:mod:`repro.eval.ranking`) and the online
retrieval engine (:mod:`repro.serving.retrieval`) must rank the same scores
to the same item ids — otherwise offline metrics stop predicting online
behaviour.  They therefore share this one kernel.

Selection is *deterministic*: ties are broken by ascending item id, exactly
as a stable full ``argsort`` of the negated scores would order them.  The
implementation still uses :func:`numpy.argpartition` (O(n) selection instead
of O(n log n) sorting) but repairs the partition's arbitrary choice among
boundary ties, so the output matches the naive reference bit-for-bit on
every input.

Scratch is bounded: the partition runs over blocks of whole rows holding at
most :data:`SELECT_BLOCK_ELEMENTS` scores (one row if a row is wider), whose
negated copy, ``intp`` index matrix and tie mask take ``itemsize + 9`` bytes
a score — 3.25 MiB for float32 — whatever the input's ``rows x n``.  (The
full sorts, taken when ``k`` is close to ``n``, allocate about what they
return.)  Rows are independent, so blocking cannot change a result.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

#: score assigned to masked-out entries.  A true ``-inf`` so that masking is
#: absolute: no finite score, however extreme, can leak past a mask, and
#: ``x + NEG_INF == NEG_INF`` exactly for every finite ``x``.
NEG_INF = -np.inf

#: scores one selection block partitions at a time: small enough to stay in
#: cache, large enough that per-block dispatch is noise.  A constant, not a
#: knob — it moves memory, never a result.
SELECT_BLOCK_ELEMENTS = 1 << 18


def _row_index(rows: int) -> np.ndarray:
    """``(rows, 1)`` row numbers: ``a[_row_index(len(a)), idx]`` picks
    ``idx``'s columns row by row, as ``np.take_along_axis(a, idx, axis=1)``
    does, without its per-call index bookkeeping."""
    return np.arange(rows)[:, None]


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries, best first, ties by lowest index.

    Equivalent to ``np.argsort(-scores, kind="stable")[:k]`` but O(n) in the
    selection step.  ``k`` is clipped to ``len(scores)``.
    """
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
    n = scores.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n)
    if k == n:
        return np.argsort(-scores, kind="stable")

    part = np.argpartition(-scores, k - 1)[:k]
    # argpartition picks an arbitrary subset of the values tied at the k-th
    # rank; rebuild the selection so boundary ties go to the lowest indices.
    threshold = scores[part].min()
    above = np.flatnonzero(scores > threshold)
    tied = np.flatnonzero(scores == threshold)
    chosen = np.concatenate([above, tied[: k - len(above)]])
    return chosen[np.argsort(-scores[chosen], kind="stable")]


def partition_topk_rows(scores: np.ndarray, k: int):
    """Row-wise argpartition top-``k`` plus boundary-tie diagnostics.

    Returns ``(part, part_scores, ambiguous_rows)`` where ``part`` is the
    ``(rows, k)`` index set of each row's ``k`` largest scores (arbitrary
    order, arbitrary choice among ties at the k-th score) and
    ``ambiguous_rows`` lists the rows where that choice *was* arbitrary —
    more entries tied at the threshold than open slots.  Every
    deterministic selection kernel in this repo (:func:`topk_indices_rows`,
    the :func:`topk_pairs_rows` fast path, the IVF fine stage) partitions
    through here and then repairs exactly the ambiguous rows, so the
    ties-resolve-to-lowest-ids contract lives in one place.  Works in row
    blocks of at most :data:`SELECT_BLOCK_ELEMENTS` scores.
    """
    rows, n = scores.shape
    part = np.empty((rows, k), dtype=np.intp)
    part_scores = np.empty((rows, k), dtype=scores.dtype)
    threshold = np.empty(rows, dtype=scores.dtype)
    n_tied = np.empty(rows, dtype=np.intp)
    step = max(1, SELECT_BLOCK_ELEMENTS // n)
    for lo in range(0, rows, step):
        hi, block = lo + step, scores[lo : lo + step]
        part[lo:hi] = np.argpartition(-block, k - 1, axis=1)[:, :k]
        part_scores[lo:hi] = block[_row_index(len(block)), part[lo:hi]]
        threshold[lo:hi] = part_scores[lo:hi].min(axis=1)
        n_tied[lo:hi] = (block == threshold[lo:hi, None]).sum(axis=1)
    n_above = (part_scores > threshold[:, None]).sum(axis=1)
    return part, part_scores, np.flatnonzero(n_tied > k - n_above)


def topk_indices_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise :func:`topk_indices`: one ``(rows, k)`` matrix per call.

    Bit-identical to calling :func:`topk_indices` on every row — the batch
    evaluation runtime depends on that for its parallel == serial contract —
    but the partition/selection runs vectorized across row blocks.
    Rows whose k-boundary ties are ambiguous (more entries tied at the
    threshold than open slots) are repaired through the per-row kernel;
    with continuous scores that is a vanishing fraction of rows.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise ValueError(f"scores must be 2-D, got shape {scores.shape}")
    rows, n = scores.shape
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n)
    if rows == 0:
        return np.empty((0, k), dtype=np.intp)
    if k == n:
        return np.argsort(-scores, axis=1, kind="stable")

    part, _, ambiguous = partition_topk_rows(scores, k)
    # Selected ids in ascending order per row, then a stable sort on the
    # negated scores: ties at equal score keep ascending id — exactly the
    # (score desc, id asc) order topk_indices produces.
    rix = _row_index(rows)
    selected = np.sort(part, axis=1)
    order = np.argsort(-scores[rix, selected], axis=1, kind="stable")
    top = selected[rix, order]

    # The partition's choice among boundary ties is arbitrary whenever more
    # entries tie at the threshold than there are slots left above it.
    for row in ambiguous:
        top[row] = topk_indices(scores[row], k)
    return top


def topk_pairs(item_ids: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` positions into parallel ``(item_ids, scores)`` arrays.

    Same ordering contract as :func:`topk_indices` — descending score, ties
    broken by ascending *item id* (not array position).  The per-row
    reference for :func:`topk_pairs_rows`, which merges per-shard candidates.
    """
    item_ids = np.asarray(item_ids)
    scores = np.asarray(scores)
    if item_ids.shape != scores.shape:
        raise ValueError(f"ids/scores shape mismatch: {item_ids.shape} vs {scores.shape}")
    order = np.lexsort((item_ids, -scores))
    return order[: min(k, len(order))]


def topk_pairs_rows(item_ids: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise :func:`topk_pairs` over ``(rows, L)`` candidate matrices.

    Bit-identical to ``topk_pairs`` applied per row (same lexicographic
    (score desc, item id asc) order).  Used to merge per-shard / per-probe
    candidates for a whole user chunk in one call.

    When ``k`` is much smaller than ``L`` (the ANN merge shape: a few
    thousand probed candidates reduced to a top-50), selection first
    narrows each row with :func:`numpy.argpartition` — O(L) instead of the
    O(L log L) full sort — and only the surviving ``k`` columns are
    ordered.  The partition's arbitrary choice among ties at the k-th
    score is repaired through the per-row reference kernel, exactly as
    :func:`topk_indices_rows` does, so the fast path cannot change a
    result.
    """
    item_ids = np.asarray(item_ids)
    scores = np.asarray(scores)
    if item_ids.ndim != 2 or item_ids.shape != scores.shape:
        raise ValueError(
            f"ids/scores must be matching 2-D arrays, got {item_ids.shape} vs {scores.shape}"
        )
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows, length = scores.shape
    k = min(k, length)
    if rows == 0:
        return np.empty((0, k), dtype=np.intp)

    rix = _row_index(rows)
    if k * 4 >= length:
        # Narrow matrices: two stable row sorts (a stable sort of a sort
        # is a lexsort) beat partition + repair bookkeeping.
        by_id = np.argsort(item_ids, axis=1, kind="stable")
        by_score = np.argsort(-scores[rix, by_id], axis=1, kind="stable")
        return by_id[rix, by_score][:, :k]

    part, part_scores, ambiguous = partition_topk_rows(scores, k)
    by_id = np.argsort(item_ids[rix, part], axis=1, kind="stable")
    by_score = np.argsort(-part_scores[rix, by_id], axis=1, kind="stable")
    order = part[rix, by_id[rix, by_score]]

    # Rows where more entries tie at the k-th score than there are slots
    # left: the partition picked an arbitrary tied subset, the contract
    # wants the lowest item ids among them.
    for row in ambiguous:
        order[row] = topk_pairs(item_ids[row], scores[row], k)
    return order


def masked_topk(
    scores: np.ndarray,
    k: int,
    exclude_items: Optional[Sequence[int]] = None,
    candidate_items: Optional[np.ndarray] = None,
    drop_masked: bool = False,
) -> np.ndarray:
    """Top-``k`` item ids of one user's score row under masking.

    ``candidate_items`` restricts the pool (everything outside it is pushed
    to :data:`NEG_INF`); ``exclude_items`` removes specific ids (typically
    the user's training positives).  With ``drop_masked`` the result omits
    masked entries instead of letting them pad out a short pool, so callers
    that surface results to users never emit an excluded item.  (A
    legitimate item whose own score is ``-inf`` is indistinguishable from a
    masked one and is dropped too; finite scores are never affected.)

    Masking happens in the scores' own floating dtype — a float32 row is
    ranked as float32, never upcast to a float64 copy (upcasting is lossless
    for comparison order, so rankings are unchanged; the copy was pure
    memory traffic).  Non-float input is still coerced to float64.
    """
    scores = np.asarray(scores)
    if scores.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        scores = scores.astype(np.float64)
    masked = candidate_items is not None or exclude_items is not None
    if candidate_items is not None:
        mask = np.full(scores.shape[0], NEG_INF, dtype=scores.dtype)
        mask[candidate_items] = 0.0
        scores = scores + mask
    if exclude_items is not None and len(exclude_items):
        scores = scores.copy()
        scores[np.asarray(exclude_items, dtype=np.int64)] = NEG_INF
    top = topk_indices(scores, k)
    if drop_masked and masked:
        top = top[scores[top] > NEG_INF]
    return top
