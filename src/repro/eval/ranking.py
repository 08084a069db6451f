"""Full-ranking top-K evaluation.

For every user with at least one positive in the evaluated split, all items
the user has *not* interacted with in training form the candidate pool
("the items that are not interacted by the user are viewed as negative
samples"); the model ranks them and Recall@K / NDCG@K are averaged over
users.

Execution goes through :mod:`repro.runtime`: user chunks are ranked by the
sharded batch-inference kernel, optionally across ``workers`` threads.
That knob changes wall time only — rankings and metrics are bit-identical
for every count, including plain serial execution.  Scoring stays in the
model's own dtype (a float32 factorization is evaluated in float32 memory;
no float64 upcast copy of the full-catalog score matrix is ever made).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..core.base import Recommender
from ..data.dataset import Dataset
from ..runtime.engine import BatchRuntime, RuntimeConfig
from ..scoring import expand_csr_rows
from .metrics import mean_metric, ndcg_at_k, recall_at_k
from .topk import masked_topk, topk_indices_rows


def _export_branches(model: Recommender):
    """Frozen score branches, or None for non-factorizable models.

    For models with a factorizable score, the expensive graph propagation is
    frozen *once* per evaluation pass (via ``export_embeddings``) and every
    user chunk is scored from the frozen branches — the same kernel serving
    uses, so the numbers are identical to calling ``predict_scores`` per
    chunk, minus the per-chunk propagation.
    """
    export = getattr(model, "export_embeddings", None)
    if export is None:
        return None
    try:
        return export()
    except NotImplementedError:
        return None


def topk_rankings(
    model: Recommender,
    dataset: Dataset,
    users: Sequence[int],
    k: int,
    exclude_train: bool = True,
    user_chunk: int = 256,
    candidate_items: Optional[Dict[int, np.ndarray]] = None,
    workers: int = 0,
    profiler=None,
    runtime: Optional[BatchRuntime] = None,
    tracer=None,
) -> Dict[int, np.ndarray]:
    """Top-k ranked item ids per user.

    ``candidate_items`` optionally restricts each user's pool (used by the
    CIR/UCIR cold-start protocols); items outside the pool are masked out.
    When given, every evaluated user must be present (an explicit ``None``
    value means unrestricted) — a silently absent user would be ranked
    against the full catalog and inflate protocol metrics, so that is a
    ``KeyError``, exactly as it was before the batch runtime existed.
    ``workers`` sets the ranking threads (see
    :class:`repro.runtime.RuntimeConfig`); results are identical for every
    count.  Models whose score does not factorize (DeepFM) are evaluated
    through their ``predict_scores`` serially.

    ``runtime`` lets callers that evaluate repeatedly (benchmark loops,
    recurring bulk jobs) reuse one :class:`~repro.runtime.BatchRuntime` —
    amortizing thread-pool startup — instead of this function building one
    per call.  A passed-in runtime must already hold the model's current
    frozen branches, and its exclusion mask must agree with
    ``exclude_train`` (checked); it is not closed here, and the
    ``workers`` / ``user_chunk`` arguments are ignored in its favor.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    users = np.asarray(list(users), dtype=np.int64)

    if candidate_items is not None:
        missing = [int(user) for user in users if int(user) not in candidate_items]
        if missing:
            raise KeyError(
                f"candidate_items is missing evaluated users {missing[:5]}"
                f"{'...' if len(missing) > 5 else ''}; pass an explicit None "
                "for users whose pool is unrestricted"
            )

    if runtime is not None:
        if runtime.has_exclusions != exclude_train:
            raise ValueError(
                f"runtime was built {'with' if runtime.has_exclusions else 'without'} "
                f"an exclusion mask but exclude_train={exclude_train}; rebuild the "
                "runtime to match the protocol"
            )
        ordered, ids, _ = runtime.rank(
            users, k, candidate_items=candidate_items, profiler=profiler, tracer=tracer
        )
        return {int(user): ids[row] for row, user in enumerate(ordered)}

    branches = _export_branches(model)
    if branches is None:
        return _rank_with_scorer(
            model.predict_scores, dataset, users, k, exclude_train, user_chunk,
            candidate_items, profiler,
        )

    exclude_csr = dataset.train_exclusion_csr() if exclude_train else None
    config = RuntimeConfig(workers=workers, user_chunk=user_chunk)
    with BatchRuntime(branches, config, exclude_csr=exclude_csr) as live_runtime:
        ordered, ids, _ = live_runtime.rank(
            users, k, candidate_items=candidate_items, profiler=profiler, tracer=tracer
        )
    return {int(user): ids[row] for row, user in enumerate(ordered)}


def _rank_with_scorer(
    scorer,
    dataset: Dataset,
    users: np.ndarray,
    k: int,
    exclude_train: bool,
    user_chunk: int,
    candidate_items: Optional[Dict[int, np.ndarray]],
    profiler,
) -> Dict[int, np.ndarray]:
    """Serial fallback for models without a frozen factorization.

    Chunks still rank through the vectorized row kernel in the scorer's own
    dtype; the score matrix is copied once per chunk (the scorer may hand
    out views of internal state, and masking happens in place).
    """
    import time

    indptr, indices = dataset.train_exclusion_csr() if exclude_train else (None, None)
    k = min(k, dataset.n_items)
    rankings: Dict[int, np.ndarray] = {}
    for start in range(0, len(users), user_chunk):
        chunk = users[start : start + user_chunk]
        tick = time.perf_counter()
        scores = np.asarray(scorer(chunk))
        if scores.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            scores = scores.astype(np.float64)
        else:
            scores = scores.copy()
        if indptr is not None:
            rows, cols = expand_csr_rows(indptr, indices, chunk)
            if rows is not None:
                scores[rows, cols] = -np.inf
        tock = time.perf_counter()
        top = topk_indices_rows(scores, k).astype(np.int64, copy=False)
        for row, user in enumerate(chunk):
            user = int(user)
            candidates = None if candidate_items is None else candidate_items.get(user)
            if candidates is not None:
                exclude = None
                if indptr is not None:
                    exclude = indices[indptr[user] : indptr[user + 1]]
                rankings[user] = masked_topk(
                    scores[row],
                    k,
                    # already masked in place above; passing exclude again is
                    # a no-op but keeps the reference-kernel call shape
                    exclude_items=exclude if exclude is not None and len(exclude) else None,
                    candidate_items=candidates,
                )
            else:
                rankings[user] = top[row]
        if profiler is not None:
            profiler.add_seconds("score", tock - tick)
            profiler.add_seconds("topk", time.perf_counter() - tock)
    return rankings


def metrics_from_rankings(
    rankings: Dict[int, np.ndarray],
    positives: Dict[int, set],
    ks: Iterable[int],
) -> Dict[str, float]:
    """Recall@K / NDCG@K averaged over the users in ``positives``.

    Shared by :func:`evaluate` and any caller that already has rankings in
    hand (pre-served top-K lists, cached experiment artifacts); each user's
    ranking must be at least ``max(ks)`` long.

    The computation is vectorized across users but arithmetic-identical to
    the per-user :func:`~repro.eval.metrics.recall_at_k` /
    :func:`~repro.eval.metrics.ndcg_at_k` loop (same summation order per
    user, same division), so results are bit-for-bit what the scalar
    reference produces — a property the test suite pins.  Ragged rankings
    (shorter than ``max(ks)``) fall back to the scalar loop.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise ValueError("need at least one cutoff k")
    users = sorted(positives)
    if not users:
        raise ValueError("no per-user values to average")
    kmax = ks[-1]

    lengths = {len(rankings[user]) for user in users}
    if min(lengths) < kmax:
        return _metrics_scalar(rankings, positives, ks, users)

    ranked = np.vstack([np.asarray(rankings[user][:kmax], dtype=np.int64) for user in users])
    if ranked.size and ranked.min() < 0:
        # Sentinel-padded rows (e.g. a BulkRecommendations export where a
        # user's pool was smaller than k): negative ids would wrap as column
        # indices in the membership gather, so take the scalar path, which
        # treats them as plain misses.
        return _metrics_scalar(rankings, positives, ks, users)
    n_relevant = np.array([len(positives[user]) for user in users], dtype=np.int64)
    if (n_relevant == 0).any():
        raise ValueError("relevant set must be non-empty")

    # Per-user hit mask over the top-kmax positions.  Every (row, item) pair
    # is one int64 key ``row * n_items + item``; a ranked pair is a hit when
    # binary search finds its key among the sorted keys of the positive
    # sets.  Scratch is the size of ``ranked``, never ``users x n_items``.
    from itertools import chain

    total = int(n_relevant.sum())
    positive_cols = np.fromiter(
        chain.from_iterable(positives[user] for user in users), dtype=np.int64, count=total
    )
    n_items = max(int(ranked.max()) if ranked.size else 0, int(positive_cols.max())) + 1
    row_keys = np.arange(len(users), dtype=np.int64) * n_items
    positive_keys = np.repeat(row_keys, n_relevant)
    positive_keys += positive_cols
    positive_keys.sort()
    ranked_keys = ranked + row_keys[:, None]
    found = np.searchsorted(positive_keys, ranked_keys)
    np.minimum(found, total - 1, out=found)
    hits = positive_keys[found] == ranked_keys

    # Discount terms and ideal-DCG prefix sums, computed with the exact same
    # scalar expressions (and sequential summation order) as ndcg_at_k.
    discounts = np.array([1.0 / np.log2(rank + 2.0) for rank in range(kmax)])
    idcg_table = np.zeros(kmax + 1)
    for rank in range(kmax):
        idcg_table[rank + 1] = idcg_table[rank] + discounts[rank]

    results: Dict[str, float] = {}
    hit_gains = np.where(hits, discounts[None, :], 0.0)
    dcg = np.zeros(len(users))
    done = 0
    for k in ks:  # ascending: each cutoff extends the shared DCG prefix
        recalls = hits[:, :k].sum(axis=1) / n_relevant
        for rank in range(done, k):  # sequential, matching the scalar sum order
            dcg += hit_gains[:, rank]
        done = k
        ndcgs = dcg / idcg_table[np.minimum(k, n_relevant)]
        results[f"Recall@{k}"] = mean_metric(recalls)
        results[f"NDCG@{k}"] = mean_metric(ndcgs)
    return results


def _metrics_scalar(rankings, positives, ks, users) -> Dict[str, float]:
    """The per-user reference loop (kept for ragged rankings and tests)."""
    results: Dict[str, float] = {}
    for k in ks:
        recalls = [recall_at_k(rankings[user], positives[user], k) for user in users]
        ndcgs = [ndcg_at_k(rankings[user], positives[user], k) for user in users]
        results[f"Recall@{k}"] = mean_metric(recalls)
        results[f"NDCG@{k}"] = mean_metric(ndcgs)
    return results


def evaluate(
    model: Recommender,
    dataset: Dataset,
    split: str = "test",
    ks: Iterable[int] = (50, 100),
    exclude_train: bool = True,
    user_chunk: int = 256,
    workers: int = 0,
    profiler=None,
    runtime: Optional[BatchRuntime] = None,
    tracer=None,
) -> Dict[str, float]:
    """Recall@K / NDCG@K averaged over users with positives in ``split``.

    ``workers`` parallelizes the ranking pass over threads (see
    :mod:`repro.runtime`); metrics are bit-identical for every count.
    With a ``profiler``, wall time is attributed to the ``score`` / ``topk``
    / ``merge`` / ``metrics`` phases (with workers the kernel phases are
    summed thread CPU seconds).  ``runtime`` reuses a caller-managed
    :class:`~repro.runtime.BatchRuntime` across calls (see
    :func:`topk_rankings`).
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise ValueError("need at least one cutoff k")
    positives = dataset.split_positive_sets(split)
    if not positives:
        raise ValueError(f"split {split!r} has no interactions to evaluate")

    import time

    from ..profiling import Profiler

    if profiler is None:
        profiler = Profiler(enabled=False)
    from ..obs.trace import maybe_span

    start = time.perf_counter()
    with maybe_span(
        tracer, "eval", cat="eval", attrs={"split": split, "n_users": len(positives)}
    ):
        rankings = topk_rankings(
            model, dataset, sorted(positives), k=max(ks), exclude_train=exclude_train,
            user_chunk=user_chunk, workers=workers,
            profiler=profiler, runtime=runtime, tracer=tracer,
        )
        with maybe_span(tracer, "eval.metrics", cat="eval"):
            with profiler.phase("metrics"):
                metrics = metrics_from_rankings(rankings, positives, ks)
    profiler.count("evaluated_users", len(positives))
    # Wall clock for throughput: the kernel phases are summed across
    # threads and would understate users/sec.
    profiler.count("eval_wall_seconds", time.perf_counter() - start)
    return metrics
