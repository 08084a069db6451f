"""The batch-inference execution engine: chunk dispatch + bulk export.

:class:`BatchRuntime` turns a frozen factorization (an
:class:`~repro.serving.index.EmbeddingIndex` or raw branches) plus an
exclusion mask into a reusable executor: ``rank(users, k)`` splits the
users into fixed-size chunks, runs them on a thread pool (inline when
``workers <= 1``), and returns results in user order.  The chunk layout
depends only on ``user_chunk`` — never on the worker count — and every
chunk runs the same :meth:`~repro.runtime.sharded.ShardedIndex.topk_chunk`
kernel, which is what makes rankings bit-identical across serial and
threaded execution.

Threads share the factorization: nothing is copied, pickled or re-attached.
A chunk spends its time in BLAS products, partitions and sorts, which
release the GIL (docs/performance.md, "Worker model").  Each thread keeps
one preallocated score buffer, so steady-state evaluation performs no
per-chunk score-matrix allocations.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .. import archive
from ..obs.trace import maybe_span
from ..scoring import ScoreBranch
from .sharded import ShardedIndex, _Buffers

#: profiler phase names the runtime reports (mirrors the trainer's phases)
EVAL_PHASES = ("score", "topk", "merge", "ann_search")

#: sentinel for :meth:`BatchRuntime.refresh` arguments meaning "keep current"
_KEEP = object()


@dataclass
class RuntimeConfig:
    """Execution knobs — none of them can change results, only wall time."""

    workers: int = 0
    user_chunk: int = 256

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.user_chunk < 1:
            raise ValueError(f"user_chunk must be >= 1, got {self.user_chunk}")


class _WorkerState:
    """Kernel state shared by every thread, with per-thread score buffers."""

    def __init__(
        self,
        sharded: ShardedIndex,
        exclude_csr: Optional[Tuple[np.ndarray, np.ndarray]],
        ann=None,
    ) -> None:
        self.sharded = sharded
        self.exclude_csr = exclude_csr
        self.ann = ann
        self._local = threading.local()

    def buffers(self) -> _Buffers:
        buffers = getattr(self._local, "buffers", None)
        if buffers is None:
            buffers = self._local.buffers = _Buffers()
        return buffers


def _rank_chunk(
    state: _WorkerState, payload, tracer, parent
) -> Tuple[np.ndarray, Optional[np.ndarray], Dict]:
    """Rank one chunk; the worker half of the runtime's determinism contract.

    The chunk's ``chunk.rank`` span goes straight into the caller's
    ``tracer`` as a child of ``parent`` (the call's ``runtime.rank`` span),
    which links it on any thread.
    """
    chunk_id, users, k, with_scores, candidates = payload
    timings: Dict[str, float] = {}
    with maybe_span(
        tracer,
        "chunk.rank",
        cat="runtime",
        parent_id=parent.span_id,
        attrs={"chunk_id": chunk_id, "n_users": len(users)},
    ):
        if state.ann is not None:
            tick = time.perf_counter()
            ids, scores = state.ann.search(
                users, k, exclude_csr=state.exclude_csr, tracer=tracer
            )
            timings["ann_search"] = time.perf_counter() - tick
            if not with_scores:
                scores = None
        else:
            ids, scores = state.sharded.topk_chunk(
                users,
                k,
                exclude_csr=state.exclude_csr,
                candidate_items=candidates,
                buffers=state.buffers(),
                with_scores=with_scores,
                timings=timings,
            )
    return ids, scores, timings


class BatchRuntime:
    """A reusable parallel executor for full-catalog top-K over many users.

    ``source`` is an :class:`~repro.serving.index.EmbeddingIndex` or a list
    of :class:`~repro.scoring.ScoreBranch` factors.  ``exclude_csr`` is
    the per-user exclusion mask as ``(indptr, indices)``; pass
    ``exclude_csr=None`` for unmasked ranking.  The runtime is a context
    manager; ``close()`` shuts its threads down.

    An exception raised while ranking a chunk reaches the :meth:`rank`
    caller as itself; the runtime stays usable.
    """

    def __init__(
        self,
        source: Union["EmbeddingIndex", Sequence[ScoreBranch]],
        config: Optional[RuntimeConfig] = None,
        exclude_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        ann=None,
    ) -> None:
        self.config = config or RuntimeConfig()
        branches = list(getattr(source, "branches", source))
        self._state = _WorkerState(ShardedIndex(branches), exclude_csr, ann)
        self.n_items = self._state.sharded.n_items
        if ann is not None and ann.n_items != self.n_items:
            raise ValueError(
                f"ann index covers {ann.n_items} items but the factorization "
                f"has {self.n_items}"
            )
        self._executor = (
            ThreadPoolExecutor(max_workers=self.config.workers)
            if self.config.workers > 1
            else None
        )

    def refresh(
        self,
        source: Union["EmbeddingIndex", Sequence[ScoreBranch]],
        exclude_csr=_KEEP,
        ann=_KEEP,
    ) -> None:
        """Point this runtime at updated factors, keeping its threads.

        The steady-state shape of a validation loop: the model's frozen
        branches change every epoch, but the runtime is built once per fit.

        ``exclude_csr`` / ``ann`` default to keeping their current values.
        The catalog size must not change — chunk results are merged by
        item id, so a different catalog needs a new runtime.
        """
        branches = list(getattr(source, "branches", source))
        sharded = ShardedIndex(branches)
        if sharded.n_items != self.n_items:
            raise ValueError(
                f"refresh changed the catalog ({sharded.n_items} items vs "
                f"{self.n_items}); build a new runtime instead"
            )
        if exclude_csr is _KEEP:
            exclude_csr = self._state.exclude_csr
        if ann is _KEEP:
            ann = self._state.ann
        if ann is not None and ann.n_items != self.n_items:
            raise ValueError(
                f"ann index covers {ann.n_items} items but the factorization "
                f"has {self.n_items}"
            )
        self._state = _WorkerState(sharded, exclude_csr, ann)

    @property
    def has_exclusions(self) -> bool:
        """Whether this runtime was built with a per-user exclusion mask."""
        return self._state.exclude_csr is not None

    @property
    def ann(self):
        """The ANN index chunks rank through (None = exact ranking)."""
        return self._state.ann

    # ------------------------------------------------------------------
    def rank(
        self,
        users: Sequence[int],
        k: int,
        with_scores: bool = False,
        candidate_items: Optional[Dict[int, np.ndarray]] = None,
        profiler=None,
        tracer=None,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Top-``k`` over the full catalog for every user, in user order.

        Returns ``(users, ids, scores)`` where ``ids`` is an
        ``(len(users), min(k, n_items))`` int64 matrix (``scores`` is None
        unless ``with_scores``).  ``candidate_items`` optionally restricts
        per-user pools (cold-start protocols).  With a ``profiler``, the
        per-chunk ``score`` / ``topk`` / ``merge`` seconds are accumulated
        under those phase names — summed across threads, so with workers
        they are CPU seconds, not wall time.  With a ``tracer``, each
        chunk records a ``chunk.rank`` span, child of this call's
        ``runtime.rank`` span.
        """
        users = np.asarray(list(users), dtype=np.int64)
        k = min(int(k), self.n_items)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if candidate_items is not None and self._state.ann is not None:
            raise ValueError(
                "per-user candidate pools and ANN candidate generation are "
                "mutually exclusive; rank restricted users through an exact "
                "runtime (the pools already prune the catalog)"
            )
        if len(users) == 0:
            empty = np.empty((0, k), dtype=np.int64)
            return users, empty, (np.empty((0, k)) if with_scores else None)
        n_users = self._state.sharded.n_users
        if users.min() < 0 or users.max() >= n_users:
            raise ValueError(f"user id out of range [0, {n_users})")

        with maybe_span(
            tracer,
            "runtime.rank",
            cat="runtime",
            attrs={"n_users": len(users), "k": k, "workers": self.config.workers},
        ) as rank_span:
            chunk = self.config.user_chunk
            payloads = []
            for chunk_id, start in enumerate(range(0, len(users), chunk)):
                chunk_users = users[start : start + chunk]
                candidates = None
                if candidate_items is not None:
                    candidates = [candidate_items.get(int(user)) for user in chunk_users]
                payloads.append((chunk_id, chunk_users, k, with_scores, candidates))

            state = self._state

            def run(payload):
                return _rank_chunk(state, payload, tracer, rank_span)

            if self._executor is None:
                results = [run(payload) for payload in payloads]
            else:
                results = list(self._executor.map(run, payloads))

            ids = np.vstack([item[0] for item in results]).astype(np.int64, copy=False)
            scores = np.vstack([item[1] for item in results]) if with_scores else None
            if profiler is not None:
                totals: Dict[str, float] = {}
                for _, _, timings in results:
                    for name, seconds in timings.items():
                        totals[name] = totals.get(name, 0.0) + seconds
                for name in EVAL_PHASES:
                    if name in totals:
                        profiler.add_seconds(name, totals[name])
                profiler.count("chunks", len(payloads))
        return users, ids, scores

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "BatchRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Bulk offline export
# ----------------------------------------------------------------------
BULK_KIND = "bulk_recommendations"


@dataclass
class BulkRecommendations:
    """Top-K lists for a population of users, as parallel arrays.

    Rows are dense (uniform ``k``), so a user whose unexcluded candidate
    pool is smaller than ``k`` gets sentinel padding: item id ``-1`` with
    score ``-inf``.  Consumers must stop at the first ``-1`` — the online
    serving path would simply emit a shorter list.
    """

    users: np.ndarray  # (n,)
    items: np.ndarray  # (n, k); -1 marks padding past the candidate pool
    scores: np.ndarray  # (n, k)
    model_name: str = "unknown"

    @property
    def k(self) -> int:
        return self.items.shape[1]

    def for_user(self, user: int) -> Tuple[np.ndarray, np.ndarray]:
        rows = np.flatnonzero(self.users == user)
        if len(rows) == 0:
            raise KeyError(f"user {user} is not in this export")
        return self.items[rows[0]], self.scores[rows[0]]

    def save(self, path: str) -> str:
        return archive.write_archive(
            path,
            {"users": self.users, "items": self.items, "scores": self.scores},
            {
                archive.KIND_KEY: BULK_KIND,
                "model_name": self.model_name,
                "k": int(self.k),
                "n_users": int(len(self.users)),
            },
        )

    @classmethod
    def load(cls, path: str) -> "BulkRecommendations":
        metadata = archive.read_archive_metadata(path)
        archive.check_header(path, metadata, BULK_KIND, "bulk recommendations")
        arrays = archive.read_archive_arrays(path)
        return cls(
            users=arrays["users"],
            items=arrays["items"],
            scores=arrays["scores"],
            model_name=metadata.get("model_name", "unknown"),
        )


def recommend_all(
    index: "EmbeddingIndex",
    k: int = 10,
    users: Optional[Sequence[int]] = None,
    exclude_train: bool = True,
    workers: int = 0,
    user_chunk: int = 1024,
    profiler=None,
    ann=None,
    tracer=None,
) -> BulkRecommendations:
    """Bulk top-``k`` export for every warm user (or an explicit user list).

    The offline counterpart of :class:`~repro.serving.service.RecommenderService`
    — one call scores the whole population against the full catalog through
    the parallel runtime and returns dense ``(users, items, scores)`` arrays
    ready to push to a key-value store.  Results are bit-identical for any
    ``workers`` setting, and identical to the
    retrieval engine's unfiltered rankings for the same users.

    ``ann`` switches the bulk job to candidate-generation mode: chunks rank
    through the given :class:`~repro.serving.ann.IVFIndex` instead of
    exact full-catalog scoring — sublinear in catalog size at the index's measured recall
    (docs/performance.md); at full probe the exported rankings and scores
    are bit-identical to the exact ones.
    """
    if users is None:
        counts = np.diff(index.exclude_indptr)
        users = np.flatnonzero(counts > 0)
    config = RuntimeConfig(workers=workers, user_chunk=user_chunk)
    exclude_csr = (index.exclude_indptr, index.exclude_indices) if exclude_train else None
    with BatchRuntime(index, config, exclude_csr=exclude_csr, ann=ann) as runtime:
        ordered, ids, scores = runtime.rank(
            users, k, with_scores=True, profiler=profiler, tracer=tracer
        )
    # A -inf score means the selection ran past the user's unexcluded pool
    # and padded with masked entries; exporting those ids would recommend
    # already-bought items the online path never emits.  Replace with the
    # -1 sentinel.  (A legitimate item whose model score is exactly -inf is
    # indistinguishable and sentineled too — finite scores are unaffected,
    # the same caveat the serving engine's result trim carries.)
    ids = np.where(scores > -np.inf, ids, -1)
    return BulkRecommendations(
        users=ordered, items=ids, scores=scores, model_name=index.model_name
    )
