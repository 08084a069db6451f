"""The request-facing recommendation service.

Pipeline: requests enter a micro-batching queue; at flush time they are
grouped by ranking parameters (k, exclusion, filter signature) and each
group of *warm* users is answered by one batched retrieval — turning N
single-user matmuls into one ``(N, d) @ (d, n_items)`` matmul, which is
where the serving throughput comes from.  Per-request scenario routing:

* **warm user** (known id with training history) → full model score from
  the frozen index — identical item ids to the offline evaluator;
* **cold user** (unseen id, or known but history-free) → price-profile
  fallback (:mod:`repro.serving.fallback`), optionally personalized by a
  request-supplied price profile.

Results land in an LRU cache keyed by the full request identity with
explicit invalidation (:meth:`RecommenderService.invalidate`) for when a
new index is swapped in or a user's state changes.  Latency, QPS, and
cache hit-rate counters live in :class:`~repro.serving.stats.ServingStats`.

Concurrency contract: the service is safe to drive from many threads at
once — this is the substrate the always-on gateway
(:mod:`repro.serving.gateway`) builds on.  Two locks split the work:

* ``_lock`` guards the *queue and cache* — the cheap mutations every
  ``submit`` performs;
* ``_flush_lock`` guards the *engine view* — a flush answers its whole
  snapshot against one consistent (index, engine, fallback) triple, and
  :meth:`swap_index` replaces that triple while holding the same lock, so
  a request can observe the old index or the new one but never a mix.

No thread ever waits on ``_flush_lock`` while holding ``_lock``, which is
what makes the pair deadlock-free.

Failure handling (opt-in via ``resilience=ResilienceConfig()``): each batch
group consults a circuit breaker, retries transient backend errors with
exponential backoff, and — when retries run out or the breaker is open —
walks the *degradation ladder* instead of erroring: serve the request's
stale LRU-cached answer if one exists, else a price-profile fallback
ranking.  Degraded answers are :class:`DegradedResponse` (a
:class:`Recommendation` subclass tagged with the ladder ``stage``), counted
in ``gateway_fallbacks_total{stage}``, and never written back to the cache.
Per-request deadlines (``submit(deadline_s=...)``) are enforced at flush
time with a typed :class:`~repro.serving.errors.DeadlineExceeded`.  Without
a resilience policy the historical contract holds: backend errors propagate
raw to ``result()``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..faults import SCORER_DELAY, SCORER_ERROR, FaultPlan
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer, maybe_span
from .errors import BackendError, DeadlineExceeded
from .fallback import PriceProfileFallback
from .filters import Filter, combine_signature
from .index import EmbeddingIndex
from .resilience import ResilienceConfig, ResiliencePolicy, is_transient
from .retrieval import RetrievalEngine, RetrievalResult
from .stats import ServingStats

WARM = "warm"
COLD = "cold_fallback"


class ResultTimeout(TimeoutError):
    """``PendingRecommendation.result(timeout=...)`` expired unresolved.

    The request is still queued and will be answered by a later flush; the
    caller has merely stopped waiting (deadline-style serving).
    """


@dataclass
class Request:
    """One recommendation query.

    ``deadline_at`` (absolute, service-clock seconds) is enforced at flush
    time; it is identity-irrelevant — two requests differing only in
    deadline share a cache entry and a batch group — so it appears in
    neither :meth:`cache_key` nor :meth:`batch_key`.
    """

    user: int
    k: int
    exclude_train: bool = True
    filters: Tuple[Filter, ...] = ()
    price_profile: Optional[np.ndarray] = None
    deadline_at: Optional[float] = None

    def cache_key(self) -> Tuple:
        profile = None if self.price_profile is None else tuple(np.asarray(self.price_profile, dtype=np.float64))
        return (
            self.user,
            self.k,
            self.exclude_train,
            combine_signature(self.filters),
            profile,
        )

    def batch_key(self) -> Tuple:
        """Requests sharing this key can be answered by one batched matmul."""
        return (self.k, self.exclude_train, combine_signature(self.filters))


@dataclass
class Recommendation:
    """Ranked answer for one request."""

    user: int
    items: np.ndarray
    scores: np.ndarray
    source: str  # WARM or COLD
    cached: bool = False

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class DegradedResponse(Recommendation):
    """A degraded answer: real data, reduced quality guarantee, tagged.

    Served instead of an error when the backend is failing — ``stage``
    names the ladder rung that produced it (``breaker_cache``,
    ``breaker_profile``, ``error_cache``, ``error_profile``).  It is a
    :class:`Recommendation` (callers that do not care keep working), but
    type-aware callers — the loadgen, SLA accounting — can count it
    separately; ``isinstance(answer, DegradedResponse)`` is the contract.
    Degraded answers are never written to the result cache.
    """

    stage: str = ""


class PendingRecommendation:
    """Handle returned by :meth:`RecommenderService.submit`.

    Resolves when the service flushes its queue.  ``result()`` (no
    timeout) forces a flush if the answer is not in yet — the synchronous
    caller's path; ``result(timeout=seconds)`` instead *waits* for another
    thread (a concurrent caller hitting the size trigger, or the gateway's
    flusher) to resolve it, raising :class:`ResultTimeout` on expiry.  A
    request that failed during its batch re-raises its error here — one
    poisoned request never orphans the rest of a batch.
    """

    def __init__(self, service: "RecommenderService", request: Request) -> None:
        self._service = service
        self._request = request
        self._result: Optional[Recommendation] = None
        self._error: Optional[Exception] = None
        self._done = threading.Event()
        self._finalize_lock = threading.Lock()
        self._span = None  # request span, finished at resolve/fail time

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until resolved (or ``timeout`` seconds); True when done."""
        return self._done.wait(timeout)

    # Resolve/fail can race — a retrying group and the flusher supervisor's
    # fail_pending may both reach one request — and outcome accounting
    # (serving_outcomes_total) must count every request exactly once, so the
    # first finalizer wins under _finalize_lock and later calls are no-ops.
    def _resolve(self, result: Recommendation) -> None:
        with self._finalize_lock:
            if self._done.is_set():
                return
            self._result = result
            self._done.set()
        self._service.stats.record_outcome(
            "degraded" if isinstance(result, DegradedResponse) else "ok"
        )
        if self._span is not None:
            self._span.finish(source=result.source, cached=result.cached)

    def _fail(self, error: Exception) -> None:
        with self._finalize_lock:
            if self._done.is_set():
                return
            self._error = error
            self._done.set()
        self._service.stats.record_outcome("failed")
        if self._span is not None:
            self._span.finish(error=type(error).__name__)

    def result(self, timeout: Optional[float] = None) -> Recommendation:
        if not self._done.is_set():
            if timeout is None:
                # Synchronous path: force a flush.  A concurrent flusher may
                # already hold our request (the queue swap happened before we
                # got here), in which case our flush() sees an empty queue —
                # the wait below covers that window.
                self._service.flush()
                self._done.wait()
            elif not self._done.wait(timeout):
                raise ResultTimeout(
                    f"request for user {self._request.user} unresolved after "
                    f"{timeout:.3f}s"
                )
        if self._error is not None:
            raise self._error
        assert self._result is not None, "flush() must resolve every queued request"
        return self._result


class RecommenderService:
    """Micro-batching, caching, scenario-routing front-end over one index."""

    def __init__(
        self,
        index: EmbeddingIndex,
        default_k: int = 10,
        max_batch_size: int = 64,
        cache_capacity: int = 1024,
        item_block_size: int = 8192,
        clock: Optional[Callable[[], float]] = None,
        ann=None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        runtime=None,
        resilience: Optional[ResilienceConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if default_k < 1:
            raise ValueError(f"default_k must be >= 1, got {default_k}")
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self.index = index
        self.item_block_size = item_block_size
        self.tracer = tracer
        self.fault_plan = fault_plan
        self.engine = RetrievalEngine(
            index, item_block_size=item_block_size, ann=ann, tracer=tracer,
            fault_plan=fault_plan, on_ann_fallback=self._on_ann_fallback,
        )
        self.fallback = PriceProfileFallback(index)
        self.default_k = default_k
        self.max_batch_size = max_batch_size
        self.cache_capacity = cache_capacity
        self._clock = clock or time.perf_counter
        # runtime: an optional sharded BatchRuntime backend over the same
        # catalog; eligible warm groups are answered by runtime.rank()
        # (bit-identical kernels) instead of the in-process engine.
        if runtime is not None and runtime.n_items != index.n_items:
            raise ValueError(
                f"backend runtime covers {runtime.n_items} items but the index "
                f"has {index.n_items}"
            )
        self.runtime = runtime
        # _lock guards queue + cache; _flush_lock serializes batch execution
        # against swap_index (see the module docstring's concurrency contract)
        self._lock = threading.RLock()
        self._flush_lock = threading.RLock()
        self._cache: "OrderedDict[Tuple, Recommendation]" = OrderedDict()
        # queue entries: (request, pending, enqueued_at) — the timestamp is
        # what lets record_batch account queue wait into end-to-end latency
        self._queue: List[Tuple[Request, PendingRecommendation, float]] = []
        self.stats = ServingStats(clock=self._clock, registry=registry)
        self.registry = self.stats.registry
        # Resilience is opt-in: None keeps the historical contract (backend
        # errors propagate raw; no breaker, no retries, no degradation).
        self.resilience: Optional[ResiliencePolicy] = None
        if resilience is not None:
            self.resilience = ResiliencePolicy(
                resilience, registry=self.registry, clock=self._clock
            )
        # Point-in-time gauges are refreshed by _sync_gauges — called once
        # per flush and as the metrics server's per-scrape update_fn, never
        # per request (the submit path is latency-gated by bench_serving).
        self._queue_depth_gauge = self.registry.gauge(
            "serving_queue_depth", "Requests currently waiting for a flush."
        )
        self._cache_entries_gauge = self.registry.gauge(
            "serving_cache_entries", "Results held in the LRU cache."
        )
        self._publish_ann_bytes()

    def _publish_ann_bytes(self) -> None:
        """Push the attached ANN index's memory report to the stats gauges.

        Called at construction and after every :meth:`swap_index` — the
        footprint only changes when the index does, so there is nothing to
        refresh per scrape.
        """
        ann = self.engine.ann
        report = None if ann is None else ann.memory_report()
        self.stats.set_ann_index_bytes(report)

    def _on_ann_fallback(self, error: BaseException) -> None:
        """Engine hook: one ANN search failed and was served exactly instead."""
        self.stats.record_fallback("ann_exact")

    @property
    def ann(self):
        """The attached ANN index (None when serving exactly)."""
        return self.engine.ann

    @classmethod
    def from_path(cls, path: str, **kwargs) -> "RecommenderService":
        """Stand up a service from a saved index archive (what a replica does)."""
        return cls(EmbeddingIndex.load(path), **kwargs)

    def swap_index(self, index: EmbeddingIndex, ann=None) -> int:
        """Hot-swap a rebuilt (retrained, re-quantized...) index in place.

        Replaces the engine, fallback, and ANN index atomically with
        respect to future requests and invalidates every derived cache —
        the LRU result cache and the engine's filter-mask cache — so no
        request served after the swap can observe a stale top-K from the
        old index.  In-flight queued requests are flushed against the old
        index first: they were submitted under it, and answering them from
        a half-swapped state would be neither-index results.

        Safe under concurrent load: ``_flush_lock`` is held across the
        drain *and* the engine replacement, so a flush racing this swap
        either completes fully against the old index (it got the lock
        first) or answers its whole snapshot from the new one — never a
        mix.  An attached backend runtime is refreshed in place.

        Complete-or-roll-back: every fallible step — building the new
        engine (which validates the ANN/catalog pairing) and refreshing the
        backend runtime — runs *before* any service state changes.  If one
        raises, the service keeps serving the old (index, engine, fallback)
        triple and cache untouched; a torn state where ``self.index`` is
        new but ``self.engine`` still scores the old catalog cannot occur.

        Returns the number of cached results evicted.
        """
        with self._flush_lock:
            self.flush()
            engine = RetrievalEngine(
                index, item_block_size=self.item_block_size, ann=ann,
                tracer=self.tracer, fault_plan=self.fault_plan,
                on_ann_fallback=self._on_ann_fallback,
            )
            fallback = PriceProfileFallback(index)
            if self.runtime is not None:
                exclude_csr = None
                if self.runtime.has_exclusions:
                    exclude_csr = (index.exclude_indptr, index.exclude_indices)
                self.runtime.refresh(index, exclude_csr=exclude_csr)
            with self._lock:
                self.index = index
                self.engine = engine
                self.fallback = fallback
                evicted = len(self._cache)
                self._cache.clear()
            self._publish_ann_bytes()
        return evicted

    # ------------------------------------------------------------------
    # Request entry points
    # ------------------------------------------------------------------
    def submit(
        self,
        user: int,
        k: Optional[int] = None,
        exclude_train: bool = True,
        filters: Sequence[Filter] = (),
        price_profile: Optional[np.ndarray] = None,
        deadline_s: Optional[float] = None,
    ) -> PendingRecommendation:
        """Enqueue a request; flushes automatically at ``max_batch_size``.

        Request validation happens here, not at flush time, so a malformed
        request fails its caller immediately instead of poisoning a batch.
        ``price_profile`` only steers the cold-start fallback; for warm
        users (answered by the full model score) it is validated, then
        dropped — so every profile variant of a warm request shares one
        cache entry.  ``deadline_s`` (relative seconds) bounds how long the
        request may wait in the queue: a flush that finds it expired fails
        it with :class:`~repro.serving.errors.DeadlineExceeded` instead of
        scoring it.
        """
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        if price_profile is not None:
            price_profile = self.fallback.normalize_profile(price_profile)
            if self.index.is_warm(int(user)):
                price_profile = None
        request = Request(
            user=int(user),
            k=self.default_k if k is None else int(k),
            exclude_train=exclude_train,
            filters=tuple(filters),
            price_profile=price_profile,
            deadline_at=None if deadline_s is None else self._clock() + deadline_s,
        )
        if request.k < 1:
            raise ValueError(f"k must be >= 1, got {request.k}")
        pending = PendingRecommendation(self, request)
        warm = self.index.is_warm(request.user)
        self.stats.record_request(warm=warm)
        if self.tracer is not None:
            pending._span = self.tracer.begin(
                "request",
                cat="serving",
                attrs={"user": request.user, "k": request.k, "warm": warm},
            )

        # The lookup span exists only when there is a cache to look into:
        # with caching disabled there is no lookup stage in the request
        # path, and a per-request span for a guaranteed miss would be the
        # single most expensive no-op on the serving hot path.
        if self.tracer is not None and self.cache_capacity > 0:
            with self.tracer.span(
                "cache.lookup",
                cat="serving",
                parent_id=pending._span.span_id if pending._span is not None else None,
            ) as lookup:
                cached = self._cache_get(request.cache_key())
                lookup.set_attr("hit", cached is not None)
        else:
            cached = self._cache_get(request.cache_key())
        if cached is not None:
            self.stats.record_cache(hit=True)
            # Hand out copies: callers may mutate their result freely
            # without corrupting the cached answer.
            pending._resolve(
                Recommendation(
                    user=cached.user,
                    items=cached.items.copy(),
                    scores=cached.scores.copy(),
                    source=cached.source,
                    cached=True,
                )
            )
            return pending
        self.stats.record_cache(hit=False)

        with self._lock:
            self._queue.append((request, pending, self._clock()))
            should_flush = len(self._queue) >= self.max_batch_size
        if should_flush:
            self.flush()
        return pending

    def recommend(
        self,
        user: int,
        k: Optional[int] = None,
        exclude_train: bool = True,
        filters: Sequence[Filter] = (),
        price_profile: Optional[np.ndarray] = None,
    ) -> Recommendation:
        """Synchronous single-request convenience wrapper."""
        return self.submit(
            user, k=k, exclude_train=exclude_train, filters=filters, price_profile=price_profile
        ).result()

    def recommend_many(
        self,
        users: Sequence[int],
        k: Optional[int] = None,
        exclude_train: bool = True,
        filters: Sequence[Filter] = (),
        price_profiles: Optional[Union[np.ndarray, Sequence[Optional[np.ndarray]]]] = None,
    ) -> List[Recommendation]:
        """Batch entry point: enqueue everything, flush once, keep order.

        ``price_profiles`` steers the cold-start fallback for cold users in
        the batch (warm users ignore it, exactly as :meth:`submit` does):
        either one shared profile array of shape ``(n_price_levels,)``
        applied to every user, or a per-user sequence (entries may be None)
        of the same length as ``users``.
        """
        if price_profiles is None:
            per_user: List[Optional[np.ndarray]] = [None] * len(users)
        elif isinstance(price_profiles, np.ndarray) and price_profiles.ndim == 1:
            per_user = [price_profiles] * len(users)
        else:
            per_user = list(price_profiles)
            if len(per_user) != len(users):
                raise ValueError(
                    f"price_profiles has {len(per_user)} entries for "
                    f"{len(users)} users (pass one 1-D array to share a "
                    "profile across the batch)"
                )
        pending = [
            self.submit(
                user, k=k, exclude_train=exclude_train, filters=filters,
                price_profile=profile,
            )
            for user, profile in zip(users, per_user)
        ]
        self.flush()
        return [p.result() for p in pending]

    # ------------------------------------------------------------------
    # Micro-batch execution
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Answer every queued request; returns how many were resolved.

        Thread-safe: the queue swap happens under ``_lock`` (so concurrent
        submits never lose a request), and the batch itself executes under
        ``_flush_lock`` (so the whole snapshot is answered by one
        consistent engine, even across a concurrent :meth:`swap_index`).
        Two racing flushes operate on disjoint snapshots.
        """
        with self._lock:
            if not self._queue:
                return 0
            queue, self._queue = self._queue, []
        self._sync_gauges()

        # Deadline sweep: a request that waited out its budget fails typed,
        # before the batch spends compute on an answer nobody awaits.
        now = self._clock()
        live = queue
        if any(request.deadline_at is not None for request, _, _ in queue):
            live = []
            for entry in queue:
                request, pending, _ = entry
                if request.deadline_at is not None and now > request.deadline_at:
                    self.stats.record_deadline_exceeded()
                    pending._fail(
                        DeadlineExceeded(
                            f"request for user {request.user} missed its deadline "
                            "before its batch ran"
                        )
                    )
                else:
                    live.append(entry)

        groups: "OrderedDict[Tuple, List[Tuple[Request, PendingRecommendation, float]]]" = OrderedDict()
        for request, pending, enqueued_at in live:
            groups.setdefault(request.batch_key(), []).append((request, pending, enqueued_at))

        with self._flush_lock:
            try:
                with maybe_span(
                    self.tracer, "flush", cat="serving", attrs={"n_requests": len(queue)}
                ):
                    for entries in groups.values():
                        warm = [e for e in entries if self.index.is_warm(e[0].user)]
                        cold = [e for e in entries if not self.index.is_warm(e[0].user)]
                        if warm:
                            self._run_group(self._answer_warm, warm)
                        if cold:
                            self._run_group(self._answer_cold_group, cold)
            finally:
                # Never strand a waiter: anything still unresolved (only
                # reachable if the grouping machinery itself failed) fails
                # loudly instead of leaving result() to block forever.
                for _, pending, _ in queue:
                    if not pending.done:
                        pending._fail(
                            RuntimeError("flush exited without resolving this request")
                        )
        return len(queue)

    def _run_group(self, answer, entries: List[Tuple[Request, PendingRecommendation, float]]) -> None:
        """Answer one group; on error, fail its requests instead of raising.

        With a resilience policy attached this is where the failure ladder
        lives:

        1. breaker open → skip the backend, degrade the whole group;
        2. transient error → retry with exponential backoff (feeding the
           breaker) while nothing in the group has resolved yet;
        3. retries exhausted → degrade (``degrade=True``) or fail every
           request with a typed :class:`BackendError`;
        4. non-transient error → fail raw immediately (a malformed request
           must not trip the breaker or hide behind a fallback answer).

        Without a policy, the historical behavior: one attempt, raw error
        delivered through ``result()``.
        """
        policy = self.resilience
        if policy is not None and not policy.allow():
            self._degrade_entries(entries, prefix="breaker")
            return
        attempt = 0
        while True:
            try:
                answer(entries)
            except Exception as error:  # noqa: BLE001 - delivered via result()
                if policy is None or not is_transient(error):
                    for _, pending, _ in entries:
                        if not pending.done:
                            pending._fail(error)
                    return
                policy.record_failure()
                resolved_any = any(pending.done for _, pending, _ in entries)
                if attempt < policy.config.retries and not resolved_any:
                    attempt += 1
                    self.stats.record_retry()
                    policy.sleep_backoff(attempt)
                    if policy.allow():
                        continue
                    self._degrade_entries(entries, prefix="breaker")
                    return
                if policy.config.degrade:
                    self._degrade_entries(entries, prefix="error")
                    return
                failure = BackendError(
                    f"backend failed after {attempt + 1} attempt(s): {error!r}"
                )
                failure.__cause__ = error
                for _, pending, _ in entries:
                    if not pending.done:
                        pending._fail(failure)
                return
            else:
                if policy is not None:
                    policy.record_success()
                return

    def _degrade_entries(
        self,
        entries: List[Tuple[Request, PendingRecommendation, float]],
        prefix: str,
    ) -> None:
        """Walk the degradation ladder for a group the backend cannot answer.

        Per request: serve its stale LRU-cached answer when one exists
        (stage ``{prefix}_cache``), otherwise rank the price-profile
        fallback scores (stage ``{prefix}_profile`` — the paper's
        cold-start path, which needs no model matmul).  Either way the
        caller gets a :class:`DegradedResponse`; nothing is written back
        to the cache, so recovered backends serve fresh answers.
        """
        began = self._clock()
        with maybe_span(
            self.tracer, "batch.degraded", cat="serving",
            attrs={"n_requests": len(entries), "prefix": prefix},
        ):
            profile_scores: Optional[np.ndarray] = None
            for request, pending, _ in entries:
                if pending.done:
                    continue
                try:
                    cached = self._cache_get(request.cache_key())
                    if cached is not None:
                        answer = DegradedResponse(
                            user=cached.user,
                            items=cached.items.copy(),
                            scores=cached.scores.copy(),
                            source=cached.source,
                            cached=True,
                            stage=f"{prefix}_cache",
                        )
                    else:
                        if profile_scores is None or request.price_profile is not None:
                            scores = self.fallback.scores(request.price_profile)
                            if request.price_profile is None:
                                profile_scores = scores
                        else:
                            scores = profile_scores
                        exclude = None
                        if request.exclude_train and 0 <= request.user < self.index.n_users:
                            exclude = self.index.excluded_items(request.user)
                        result = self.engine.topk_from_scores(
                            scores, k=request.k, exclude_items=exclude,
                            filters=request.filters,
                        )
                        answer = DegradedResponse(
                            user=request.user,
                            items=result.items,
                            scores=result.scores,
                            source=COLD,
                            stage=f"{prefix}_profile",
                        )
                    self.stats.record_fallback(answer.stage)
                    pending._resolve(answer)
                except Exception as degrade_error:  # noqa: BLE001
                    if not pending.done:
                        failure = BackendError(
                            f"degradation ladder failed too: {degrade_error!r}"
                        )
                        failure.__cause__ = degrade_error
                        pending._fail(failure)
        self.stats.record_batch(
            n_requests=len(entries),
            n_items_scored=self.index.n_items,
            seconds=self._clock() - began,
        )

    def fail_pending(self, error: Exception) -> int:
        """Fail every queued request with ``error``; returns how many.

        The flusher supervisor's tool: when the gateway's background
        flusher dies, the requests it was responsible for must fail loudly
        and promptly rather than hang until a client timeout.
        """
        with self._lock:
            queue, self._queue = self._queue, []
        for _, pending, _ in queue:
            if not pending.done:
                pending._fail(error)
        self._sync_gauges()
        return len(queue)

    def _route_via_runtime(self, request: Request) -> bool:
        """Whether a warm group with this shape may run on the backend runtime.

        The runtime ranks the full catalog with the service's own kernels
        (bit-identical results), but knows nothing of per-request filters
        and carries a fixed exclusion mask — so only the unfiltered shape
        whose exclusion setting matches the runtime's is eligible; anything
        else stays on the in-process engine.
        """
        return (
            self.runtime is not None
            and not request.filters
            and request.exclude_train == self.runtime.has_exclusions
            and self.engine.ann is None
            and self.runtime.ann is None
        )

    def _answer_warm(self, entries: List[Tuple[Request, PendingRecommendation, float]]) -> None:
        if self.fault_plan is not None:
            # Chaos drill hooks: a slow scorer stalls the batch, a poisoned
            # scorer raises — exercised before any compute, like a failure
            # in the first matmul would be.
            self.fault_plan.maybe_delay(SCORER_DELAY)
            self.fault_plan.maybe_fail(SCORER_ERROR)
        first = entries[0][0]
        users = [request.user for request, _, _ in entries]
        began = self._clock()
        via_runtime = self._route_via_runtime(first)
        with maybe_span(
            self.tracer, "batch.warm", cat="serving",
            attrs={"n_requests": len(entries), "backend": "runtime" if via_runtime else "engine"},
        ):
            if via_runtime:
                _, ids, scores = self.runtime.rank(
                    users, k=min(first.k, self.index.n_items), with_scores=True,
                    tracer=self.tracer,
                )
                results = [
                    RetrievalResult(items=ids[row], scores=scores[row])
                    for row in range(len(users))
                ]
            else:
                results = self.engine.topk(
                    users,
                    k=first.k,
                    exclude_train=first.exclude_train,
                    filters=first.filters,
                )
        self.stats.record_batch(
            n_requests=len(entries),
            n_items_scored=len(entries) * self.index.n_items,
            seconds=self._clock() - began,
            queue_waits=[began - enqueued_at for _, _, enqueued_at in entries],
        )
        for (request, pending, _), result in zip(entries, results):
            try:
                answer = Recommendation(
                    user=request.user, items=result.items, scores=result.scores, source=WARM
                )
                self._cache_put(request.cache_key(), answer)
                pending._resolve(answer)
            except Exception as error:  # noqa: BLE001 - delivered via result()
                if not pending.done:
                    pending._fail(error)

    def _answer_cold_group(
        self, entries: List[Tuple[Request, PendingRecommendation, float]]
    ) -> None:
        """Answer cold requests, computing each profile's score vector once.

        Fallback scores depend only on the price profile (and the frozen
        index), so requests sharing a profile — in particular the common
        no-profile case — share one scoring pass.  Each request resolves
        (or fails) individually: one request whose per-user ranking throws
        does not poison the rest of its profile group.
        """
        by_profile: "OrderedDict[Optional[Tuple], List[Tuple[Request, PendingRecommendation, float]]]" = OrderedDict()
        for request, pending, enqueued_at in entries:
            key = None if request.price_profile is None else tuple(request.price_profile)
            by_profile.setdefault(key, []).append((request, pending, enqueued_at))

        for profile_entries in by_profile.values():
            began = self._clock()
            with maybe_span(
                self.tracer,
                "batch.cold",
                cat="serving",
                attrs={"n_requests": len(profile_entries)},
            ):
                scores = self.fallback.scores(profile_entries[0][0].price_profile)
                for request, pending, _ in profile_entries:
                    try:
                        exclude = None
                        if request.exclude_train and 0 <= request.user < self.index.n_users:
                            exclude = self.index.excluded_items(request.user)
                        result = self.engine.topk_from_scores(
                            scores, k=request.k, exclude_items=exclude, filters=request.filters
                        )
                        answer = Recommendation(
                            user=request.user, items=result.items, scores=result.scores,
                            source=COLD,
                        )
                        self._cache_put(request.cache_key(), answer)
                        pending._resolve(answer)
                    except Exception as error:  # noqa: BLE001 - delivered via result()
                        if not pending.done:
                            pending._fail(error)
            self.stats.record_batch(
                n_requests=len(profile_entries),
                n_items_scored=self.index.n_items,
                seconds=self._clock() - began,
                queue_waits=[began - enqueued_at for _, _, enqueued_at in profile_entries],
            )

    # ------------------------------------------------------------------
    # Result cache
    # ------------------------------------------------------------------
    def _cache_get(self, key: Tuple) -> Optional[Recommendation]:
        if self.cache_capacity < 1:
            return None
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._cache.move_to_end(key)
            return hit

    def _cache_put(self, key: Tuple, value: Recommendation) -> None:
        if self.cache_capacity < 1:
            return
        # Snapshot the arrays: the caller owns the object we hand back.
        entry = Recommendation(
            user=value.user,
            items=value.items.copy(),
            scores=value.scores.copy(),
            source=value.source,
        )
        with self._lock:
            self._cache[key] = entry
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_capacity:
                self._cache.popitem(last=False)

    def invalidate(self, user: Optional[int] = None) -> int:
        """Drop cached results — all of them, or one user's.

        Call with no argument after swapping in a re-exported index; call
        with a user id when that user's state changed (new purchase).
        Returns the number of evicted entries.
        """
        with self._lock:
            if user is None:
                evicted = len(self._cache)
                self._cache.clear()
                self.engine.invalidate_masks()
                return evicted
            keys = [key for key in self._cache if key[0] == user]
            for key in keys:
                del self._cache[key]
            return len(keys)

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def oldest_enqueued_at(self) -> Optional[float]:
        """Enqueue timestamp of the longest-waiting queued request.

        None when the queue is empty.  This is what a latency-triggered
        batcher (the gateway's flusher thread) schedules its wakeup from.
        """
        with self._lock:
            return self._queue[0][2] if self._queue else None

    def _sync_gauges(self) -> None:
        self._queue_depth_gauge.set(len(self._queue))
        self._cache_entries_gauge.set(len(self._cache))
