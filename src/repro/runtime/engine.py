"""The batch-inference execution engine: chunk dispatch + bulk export.

:class:`BatchRuntime` turns a frozen factorization (an
:class:`~repro.serving.index.EmbeddingIndex` or raw branches) plus an
exclusion mask into a reusable executor: ``rank(users, k)`` splits the
users into fixed-size chunks, dispatches them to a
:class:`~repro.runtime.pool.WorkerPool`, and reassembles results in user
order.  The chunk layout depends only on ``user_chunk`` — never on the
worker count or pool mode — and every chunk runs the same
:meth:`~repro.runtime.sharded.ShardedIndex.topk_chunk` kernel, which is
what makes rankings bit-identical across serial, threaded, and
multi-process execution.

Worker transport: process pools prefer the ``fork`` start method, so the
factorization is inherited copy-on-write — zero copies, zero pickling.
When the runtime is built from an index loaded with
``EmbeddingIndex.load(path, mmap=True)``, workers instead re-attach to the
on-disk directory by path, mapping the same page-cache copy (this is also
what makes ``spawn``-only platforms cheap).  Each worker keeps one
preallocated score buffer per thread, so steady-state evaluation performs
no per-chunk score-matrix allocations.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.base import ScoreBranch
from ..obs.trace import Tracer, maybe_span
from .pool import WorkerPool
from .sharded import ShardedIndex, _Buffers

#: profiler phase names the runtime reports (mirrors the trainer's phases)
EVAL_PHASES = ("score", "topk", "merge", "ann_search")

#: sentinel for :meth:`BatchRuntime.refresh` arguments meaning "keep current"
_KEEP = object()


@dataclass
class RuntimeConfig:
    """Execution knobs — none of them can change results, only wall time."""

    workers: int = 0
    mode: str = "auto"
    user_chunk: int = 256

    def __post_init__(self) -> None:
        if self.user_chunk < 1:
            raise ValueError(f"user_chunk must be >= 1, got {self.user_chunk}")


class _WorkerState:
    """Per-process (or shared, for threads) kernel state with local buffers."""

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


#: process-pool worker state, populated by :func:`_init_process_worker`
_PROCESS_STATE: Optional[_WorkerState] = None


def _build_state(spec: Dict) -> _WorkerState:
    if spec.get("index_path") is not None:
        from ..serving.index import EmbeddingIndex  # deferred: avoids a cycle

        index = EmbeddingIndex.load(spec["index_path"], mmap=spec.get("index_mmap", False))
        branches = index.branches
        exclude_csr = (
            (index.exclude_indptr, index.exclude_indices) if spec["exclude"] else None
        )
    else:
        branches = spec["branches"]
        exclude_csr = spec["exclude_csr"]
    return _WorkerState(ShardedIndex(branches), exclude_csr, spec.get("ann"))


def _init_process_worker(spec: Dict) -> None:
    global _PROCESS_STATE
    _PROCESS_STATE = _build_state(spec)


def _rank_chunk_process(payload) -> Tuple[int, np.ndarray, Optional[np.ndarray], Dict, Optional[List]]:
    chunk_id, ids, scores, timings, spans = _rank_chunk(_PROCESS_STATE, payload)
    # Item ids always fit int32 (catalogs are nowhere near 2**31); halving
    # the result payload halves the pickle/IPC cost of the hot direction.
    return chunk_id, ids.astype(np.int32, copy=False), scores, timings, spans


def _rank_chunk(
    state: _WorkerState, payload
) -> Tuple[int, np.ndarray, Optional[np.ndarray], Dict, Optional[List]]:
    """Rank one chunk; the worker half of the runtime's determinism contract.

    ``payload[5]`` is an optional trace context ``{"trace_id", "parent_id"}``
    from the parent's tracer.  When present, the chunk records its spans
    into a worker-local :class:`Tracer` and ships them back as plain dicts
    in the result tuple — the same pickle path the rankings take — for the
    parent to fold in with ``Tracer.extend``.  ``perf_counter`` is
    CLOCK_MONOTONIC on Linux, shared by forked children, so worker span
    timestamps land on the parent's timeline.
    """
    chunk_id, users, k, with_scores, candidates, trace_ctx = payload
    timings: Dict[str, float] = {}
    tracer = Tracer(process_name="runtime-worker") if trace_ctx is not None else None
    with maybe_span(
        tracer,
        "chunk.rank",
        cat="runtime",
        trace_id=trace_ctx["trace_id"] if trace_ctx else None,
        parent_id=trace_ctx["parent_id"] if trace_ctx else None,
        attrs={"chunk_id": chunk_id, "n_users": len(users)},
    ):
        if state.ann is not None:
            import time

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
    spans = tracer.records() if tracer is not None else None
    return chunk_id, ids, scores, timings, spans


class BatchRuntime:
    """A reusable parallel executor for full-catalog top-K over many users.

    ``source`` is an :class:`~repro.serving.index.EmbeddingIndex` or a list
    of :class:`~repro.core.base.ScoreBranch` factors.  ``exclude_csr`` is
    the per-user exclusion mask as ``(indptr, indices)``; pass
    ``exclude_csr=None`` for unmasked ranking.  The runtime is a context
    manager; ``close()`` tears the pool down.
    """

    def __init__(
        self,
        source: Union["EmbeddingIndex", Sequence[ScoreBranch]],
        config: Optional[RuntimeConfig] = None,
        exclude_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        ann=None,
        fault_plan=None,
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

        self._pool = WorkerPool(
            workers=self.config.workers,
            mode=self.config.mode,
            initializer=_init_process_worker,
            initargs=(self._worker_spec(source, branches, exclude_csr, ann),),
            fault_plan=fault_plan,
        )
        self.mode = self._pool.mode

    def _worker_spec(self, source, branches, exclude_csr, ann) -> Dict:
        """Spec the process-pool workers rebuild their state from.

        An index that knows its on-disk mmap location is shipped as a path
        (workers attach to the shared on-disk copy); everything else ships
        the arrays themselves — free under fork (inherited), a one-time
        copy under spawn.  An ANN index always ships as arrays: it wraps
        live objects a path cannot rebuild.
        """
        index_path = getattr(source, "source_path", None)
        index_mmap = bool(getattr(source, "source_mmap", False))
        if index_path is not None and index_mmap and exclude_csr is not None:
            exclude_is_index_own = exclude_csr[0] is getattr(source, "exclude_indptr", None)
        else:
            exclude_is_index_own = False
        if (
            ann is None
            and index_path is not None
            and index_mmap
            and (exclude_csr is None or exclude_is_index_own)
        ):
            return {
                "index_path": index_path,
                "index_mmap": True,
                "exclude": exclude_csr is not None,
            }
        return {
            "index_path": None,
            "branches": branches,
            "exclude_csr": exclude_csr,
            "ann": ann,
        }

    def refresh(
        self,
        source: Union["EmbeddingIndex", Sequence[ScoreBranch]],
        exclude_csr=_KEEP,
        ann=_KEEP,
    ) -> None:
        """Point this runtime at updated factors without pool teardown.

        The steady-state shape of a validation loop: the model's frozen
        branches change every epoch, but the worker pool (and its startup
        cost) should be paid once per fit, not once per evaluate.  Local
        state is swapped in place; process-pool workers receive the new
        spec through :meth:`WorkerPool.reinitialize` (one barrier
        broadcast — under ``fork`` that re-pickles the branch arrays once
        per worker, still far cheaper than re-forking a pool).

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
        if self._pool.mode == "process":
            self._pool.reinitialize(self._worker_spec(source, branches, exclude_csr, ann))

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
        under those phase names — summed across workers, so in parallel
        modes they are CPU seconds, not wall time.  With a ``tracer``, each
        chunk records a ``chunk.rank`` span (child of this call's
        ``runtime.rank`` span) in its worker and ships it back over the
        result path, process mode included.
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
            attrs={"n_users": len(users), "k": k, "mode": self.mode},
        ) as rank_span:
            trace_ctx = None
            if tracer is not None and tracer.enabled:
                trace_ctx = {
                    "trace_id": rank_span.trace_id,
                    "parent_id": rank_span.span_id,
                }

            chunk = self.config.user_chunk
            payloads = []
            for chunk_id, start in enumerate(range(0, len(users), chunk)):
                chunk_users = users[start : start + chunk]
                candidates = None
                if candidate_items is not None:
                    candidates = [candidate_items.get(int(user)) for user in chunk_users]
                payloads.append((chunk_id, chunk_users, k, with_scores, candidates, trace_ctx))

            if self._pool.mode == "process":
                results = self._pool.map(_rank_chunk_process, payloads)
            else:
                state = self._state
                results = self._pool.map(lambda payload: _rank_chunk(state, payload), payloads)

            results.sort(key=lambda item: item[0])
            ids = np.vstack([item[1] for item in results]).astype(np.int64, copy=False)
            scores = np.vstack([item[2] for item in results]) if with_scores else None
            if profiler is not None:
                totals: Dict[str, float] = {}
                for _, _, _, timings, _ in results:
                    for name, seconds in timings.items():
                        totals[name] = totals.get(name, 0.0) + seconds
                for name in EVAL_PHASES:
                    if name in totals:
                        profiler.add_seconds(name, totals[name])
                profiler.count("chunks", len(payloads))
            if tracer is not None:
                for _, _, _, _, spans in results:
                    if spans:
                        tracer.extend(spans)
        return users, ids, scores

    def close(self) -> None:
        self._pool.close()

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
        from ..train import persistence  # deferred: train imports eval imports runtime

        return persistence.write_archive(
            path,
            {"users": self.users, "items": self.items, "scores": self.scores},
            {
                persistence.KIND_KEY: BULK_KIND,
                "model_name": self.model_name,
                "k": int(self.k),
                "n_users": int(len(self.users)),
            },
        )

    @classmethod
    def load(cls, path: str) -> "BulkRecommendations":
        from ..train import persistence  # deferred: train imports eval imports runtime

        metadata = persistence.read_archive_metadata(path)
        persistence.check_header(path, metadata, BULK_KIND, "bulk recommendations")
        arrays = persistence.read_archive_arrays(path)
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
    mode: str = "auto",
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
    ``workers`` / ``mode`` setting, and identical to the
    retrieval engine's unfiltered rankings for the same users.

    ``ann`` switches the bulk job to candidate-generation mode: chunks rank
    through the given :class:`~repro.serving.ann.IVFIndex` instead of
    exact full-catalog scoring — sublinear in catalog size at the index's measured recall
    (docs/performance.md); at full probe the exported rankings are
    bit-identical to the exact ones (float64 scores carry the item-layout
    caveat that :mod:`repro.serving.retrieval` documents).
    """
    if users is None:
        counts = np.diff(index.exclude_indptr)
        users = np.flatnonzero(counts > 0)
    config = RuntimeConfig(workers=workers, mode=mode, user_chunk=user_chunk)
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
