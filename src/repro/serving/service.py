"""The request-facing recommendation service: one queue, one flush pipeline.

A request's whole path lives here, in stage order:

1. **enqueue** — validate, then the LRU result cache (keyed by the full
   request identity; a hit resolves on the spot), else append to the one
   micro-batching queue, noting under the queue lock whether the size
   trigger (``max_batch_size``) is now due;
2. **flush** — asked for by a submitter crossing the size trigger
   (``size``), the gateway's timer or drain (``deadline`` / ``drain``), or a
   blocking caller (``sync``: ``result()``, ``recommend_many``,
   ``swap_index``), and counted once per non-empty flush in
   ``gateway_flushes_total{trigger}`` / ``gateway_batch_size``.  One
   linear pass: take the queue → expire deadlines → group into lanes (warm
   users by train exclusion; cold users by price profile) → guard → rank →
   deliver.

*Rank*: the **warm** lane (known ids with training history) is one batched
retrieval whatever its requests' ``k`` and filters — ranked at the lane's
largest ``k``, each row under its own filter mask, each answer trimmed to
its own ``k`` — so N single-user matmuls become one ``(N, d) @ (d,
n_items)`` matmul, which is where the serving throughput comes from, with
item ids identical to the offline evaluator's; **cold** users (unseen id,
or known but history-free) are ranked from the price-profile fallback
(:mod:`repro.serving.fallback`), optionally personalized by a
request-supplied price profile.  *Deliver*: build the answer, write the
cache (:meth:`RecommenderService.invalidate` drops entries explicitly),
resolve or fail the request, and book its end-to-end latency into
:class:`~repro.serving.stats.ServingStats`.  Answers are read-only, and a
cache hit is the cached :class:`Recommendation` itself.

*Guard* (opt-in via ``resilience=ResilienceConfig()``): each group consults
a circuit breaker, retries transient backend errors with exponential
backoff, and — when retries run out or the breaker is open — walks the
*degradation ladder* instead of erroring: the request's stale cached answer
if one exists, else a price-profile fallback ranking.  Degraded answers are
:class:`DegradedResponse` (a :class:`Recommendation` subclass tagged with
the ladder ``stage``), counted in ``gateway_fallbacks_total{stage}``, and
never written back to the cache.  Per-request deadlines
(``submit(deadline_s=...)``) fail typed at flush time with
:class:`~repro.serving.errors.DeadlineExceeded`.  Without a policy, backend
errors propagate raw to ``result()``.

Concurrency contract: safe to drive from many threads at once; the gateway
(:mod:`repro.serving.gateway`) only adds admission control and the deadline
timer in front.  ``_lock`` guards the *queue and cache* — the cheap
mutations every ``enqueue`` performs; ``_flush_lock`` guards the *engine
view* — a flush answers its whole snapshot against one consistent (index,
engine, fallback) triple, and :meth:`swap_index` replaces that triple under
the same lock, so a request observes the old index or the new one, never a
mix.  Lock order: gateway admission condition → ``_lock``, and
``_flush_lock`` → ``_lock``; nothing waits on ``_flush_lock`` or the
admission condition while holding ``_lock``, which makes the set
deadlock-free.  Racing flushes take disjoint queue snapshots.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
    deadline share a cache entry — so it is not part of :meth:`cache_key`.
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


@dataclass(frozen=True)
class Recommendation:
    """Ranked answer for one request: frozen, with read-only arrays.

    One object may reach every caller of a key (a cache hit is the cached
    answer itself), so neither it nor its arrays can be changed in place;
    copy first (``np.array(rec.items)``) to post-process.
    """

    user: int
    items: np.ndarray
    scores: np.ndarray
    source: str  # WARM or COLD
    cached: bool = False

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
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


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` made read-only, owning its data.

    A view is copied first, so an answer (and the cache entry sharing its
    arrays) never pins the larger buffer it was sliced from.
    """
    if array.base is not None:
        array = array.copy()
    array.flags.writeable = False
    return array


# Shared by every handle born resolved (a cache hit, which never enters the
# queue, so nothing finalizes it): a hit builds no event of its own.
_RESOLVED = threading.Event()
_RESOLVED.set()


class PendingRecommendation:
    """Handle returned by :meth:`RecommenderService.submit`; also the queue entry.

    Carries its ``request``, the service-clock ``enqueued_at`` stamp, and
    ``flush_due`` — whether enqueueing it brought the queue to the size
    trigger.  Resolves when the service flushes its queue.  ``result()``
    (no timeout) forces a flush if the answer is not in yet — the
    synchronous caller's path; ``result(timeout=seconds)`` instead *waits*
    for another thread (a concurrent caller hitting the size trigger, or
    the gateway's flusher) to resolve it, raising :class:`ResultTimeout` on
    expiry.  A request that failed during its batch re-raises its error
    here — one poisoned request never orphans the rest of a batch.

    Passing ``result`` makes the handle born resolved: a cache hit, booked
    at enqueue.
    """

    def __init__(
        self,
        service: "RecommenderService",
        request: Request,
        result: Optional[Recommendation] = None,
    ) -> None:
        self._service = service
        self.request = request
        self.enqueued_at = 0.0
        self.flush_due = False
        self._result = result
        self._error: Optional[Exception] = None
        self._done = threading.Event() if result is None else _RESOLVED
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
                    f"request for user {self.request.user} unresolved after "
                    f"{timeout:.3f}s"
                )
        if self._error is not None:
            raise self._error
        assert self._result is not None, "flush() must resolve every queued request"
        return self._result


def _profile_key(request: Request) -> Optional[Tuple]:
    """Hashable identity of the price profile steering a cold request."""
    return None if request.price_profile is None else tuple(request.price_profile)


def _fail_all(entries: Sequence[PendingRecommendation], error: Exception) -> None:
    """Fail whatever in ``entries`` is still unresolved (``_fail`` is first-wins)."""
    for pending in entries:
        if not pending.done:
            pending._fail(error)


def _count_ann_fallback(stats: ServingStats) -> Callable[[BaseException], None]:
    """Engine hook: one ANN search failed and was served exactly instead.

    It holds the stats, not the service: a bound method would close a
    service -> engine -> service cycle, and a replaced service would keep
    its index and ANN index alive until the cyclic collector ran.
    """
    return lambda error: stats.record_fallback("ann_exact")


class RecommenderService:
    """Micro-batching, caching, scenario-routing front-end over one index."""

    def __init__(
        self,
        index: EmbeddingIndex,
        default_k: int = 10,
        max_batch_size: int = 64,
        cache_capacity: int = 1024,
        clock: Optional[Callable[[], float]] = None,
        ann=None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        resilience: Optional[ResilienceConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if default_k < 1:
            raise ValueError(f"default_k must be >= 1, got {default_k}")
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self.index = index
        self.tracer = tracer
        self.fault_plan = fault_plan
        self._clock = clock or time.perf_counter
        self.stats = ServingStats(clock=self._clock, registry=registry)
        self.engine = RetrievalEngine(
            index, ann=ann, tracer=tracer, fault_plan=fault_plan,
            on_ann_fallback=_count_ann_fallback(self.stats),
        )
        self.fallback = PriceProfileFallback(index)
        self.default_k = default_k
        self.max_batch_size = max_batch_size
        self.cache_capacity = cache_capacity
        # _lock guards queue + cache; _flush_lock serializes batch execution
        # against swap_index (see the module docstring's concurrency contract)
        self._lock = threading.RLock()
        self._flush_lock = threading.RLock()
        self._cache: "OrderedDict[Tuple, Recommendation]" = OrderedDict()
        self._queue: List[PendingRecommendation] = []
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
        # per request (the submit path is the serve_hot workload's hot loop).
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

    @property
    def ann(self):
        """The attached ANN index (None when serving exactly)."""
        return self.engine.ann

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
        mix.

        Complete-or-roll-back: the one fallible step — building the new
        engine, which validates the ANN/catalog pairing — runs *before* any
        service state changes.  If it raises, the service keeps serving the
        old (index, engine, fallback) triple and cache untouched; a torn
        state where ``self.index`` is new but ``self.engine`` still scores
        the old catalog cannot occur.

        Returns the number of cached results evicted.
        """
        with self._flush_lock:
            self.flush()
            engine = RetrievalEngine(
                index, ann=ann, tracer=self.tracer, fault_plan=self.fault_plan,
                on_ann_fallback=_count_ann_fallback(self.stats),
            )
            fallback = PriceProfileFallback(index)
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
    def enqueue(
        self,
        user: int,
        k: Optional[int] = None,
        exclude_train: bool = True,
        filters: Sequence[Filter] = (),
        price_profile: Optional[np.ndarray] = None,
        deadline_s: Optional[float] = None,
    ) -> PendingRecommendation:
        """:meth:`submit` without the inline flush: validate → cache → append.

        For a caller that must not run a batch where it stands (the
        gateway, under its admission lock).  The handle comes back resolved
        on a cache hit; otherwise ``flush_due`` says whether the queue
        reached ``max_batch_size`` — the caller then owes a ``flush("size")``.

        Validation happens here, not at flush time, so a malformed request
        fails its caller immediately instead of poisoning a batch.
        ``price_profile`` only steers the cold-start fallback; for warm
        users it is validated, then dropped — so every profile variant of a
        warm request shares one cache entry.
        """
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        warm = self.index.is_warm(int(user))
        if price_profile is not None:
            price_profile = self.fallback.normalize_profile(price_profile)
            if warm:
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
        self.stats.record_request(warm=warm)
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(
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
                "cache.lookup", cat="serving", parent_id=span.span_id
            ) as lookup:
                cached = self._cache_get(request.cache_key())
                lookup.set_attr("hit", cached is not None)
        else:
            cached = self._cache_get(request.cache_key())
        self.stats.record_cache(hit=cached is not None)
        if cached is not None:
            # The cached answer itself, on a handle born resolved; its
            # outcome and span are booked here, once.
            self.stats.record_outcome("ok")
            if span is not None:
                span.finish(source=cached.source, cached=True)
            return PendingRecommendation(self, request, cached)

        pending = PendingRecommendation(self, request)
        pending._span = span
        with self._lock:
            pending.enqueued_at = self._clock()
            self._queue.append(pending)
            pending.flush_due = len(self._queue) >= self.max_batch_size
        return pending

    def submit(
        self,
        user: int,
        k: Optional[int] = None,
        exclude_train: bool = True,
        filters: Sequence[Filter] = (),
        price_profile: Optional[np.ndarray] = None,
        deadline_s: Optional[float] = None,
    ) -> PendingRecommendation:
        """Enqueue a request; flushes inline once ``max_batch_size`` are queued.

        ``deadline_s`` (relative seconds) bounds the queue wait: a flush
        that finds the request expired fails it with
        :class:`~repro.serving.errors.DeadlineExceeded` instead of scoring it.
        """
        pending = self.enqueue(user, k, exclude_train, filters, price_profile, deadline_s)
        if pending.flush_due:
            self.flush("size")
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
        return self.submit(user, k, exclude_train, filters, price_profile).result()

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
    # The flush pipeline: take → expire → group → guard → rank → deliver
    # ------------------------------------------------------------------
    def flush(self, trigger: str = "sync") -> int:
        """Answer every queued request; returns how many were taken.

        ``trigger`` only names who asked, for the flush accounting (see the
        module docstring); a bare ``flush()`` is a blocking caller's ``sync``.

        Thread-safe: the queue swap happens under ``_lock`` (so concurrent
        submits never lose a request), and the batch itself executes under
        ``_flush_lock`` (so the whole snapshot is answered by one
        consistent engine, even across a concurrent :meth:`swap_index`).
        Two racing flushes operate on disjoint snapshots.

        Warm requests are grouped by ``exclude_train`` alone: one
        :meth:`RetrievalEngine.topk_rows` call answers a group whatever its
        requests' ``k`` and filters, each answer bit-identical to the one
        the request gets alone.
        """
        with self._lock:
            if not self._queue:
                return 0
            queue, self._queue = self._queue, []
        self._sync_gauges()
        self.stats.record_flush(trigger, len(queue))

        # Deadline sweep: a request that waited out its budget fails typed,
        # before the batch spends compute on an answer nobody awaits.
        now = self._clock()
        live = []
        for pending in queue:
            deadline_at = pending.request.deadline_at
            if deadline_at is not None and now > deadline_at:
                self.stats.record_deadline_exceeded()
                pending._fail(
                    DeadlineExceeded(
                        f"request for user {pending.request.user} missed its "
                        "deadline before its batch ran"
                    )
                )
            else:
                live.append(pending)

        with self._flush_lock:
            try:
                with maybe_span(
                    self.tracer, "flush", cat="serving", attrs={"n_requests": len(queue)}
                ):
                    # A warm lane per exclusion, a cold lane per price profile
                    # (one fallback score row alive at a time).  Routed
                    # against the index this flush answers from, hence in here.
                    groups: "OrderedDict[Tuple, List[PendingRecommendation]]" = OrderedDict()
                    for pending in live:
                        request = pending.request
                        if self.index.is_warm(request.user):
                            key = (WARM, request.exclude_train)
                        else:
                            key = (COLD, _profile_key(request))
                        groups.setdefault(key, []).append(pending)
                    for key, entries in groups.items():
                        answer = self._answer_warm if key[0] == WARM else self._answer_cold
                        self._run_group(answer, entries)
            finally:
                # Never strand a waiter: anything still unresolved (only
                # reachable if the grouping machinery itself failed) fails
                # loudly instead of leaving result() to block forever.
                _fail_all(queue, RuntimeError("flush exited without resolving this request"))
        return len(queue)

    def _run_group(self, answer, entries: List[PendingRecommendation]) -> None:
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
        attempt = 0
        while policy is None or policy.allow():
            try:
                answer(entries)
            except Exception as error:  # noqa: BLE001 - delivered via result()
                if policy is None or not is_transient(error):
                    _fail_all(entries, error)
                    return
                policy.record_failure()
                resolved_any = any(pending.done for pending in entries)
                if attempt < policy.config.retries and not resolved_any:
                    attempt += 1
                    self.stats.record_retry()
                    policy.sleep_backoff(attempt)
                    continue  # the breaker is consulted again before the retry
                if policy.config.degrade:
                    self._answer_degraded(entries, prefix="error")
                    return
                failure = BackendError(
                    f"backend failed after {attempt + 1} attempt(s): {error!r}"
                )
                failure.__cause__ = error
                _fail_all(entries, failure)
                return
            if policy is not None:
                policy.record_success()
            return
        self._answer_degraded(entries, prefix="breaker")

    def _answer_warm(self, entries: List[PendingRecommendation]) -> None:
        """One batched retrieval for a group of warm users, each at its own
        ``k`` under its own filters (one ``exclude_train`` per group).  A
        filter set the index cannot evaluate comes back as its rows' error
        and fails only those requests."""
        if self.fault_plan is not None:
            # Chaos drill hooks: a slow scorer stalls the batch, a poisoned
            # scorer raises — exercised before any compute, like a failure
            # in the first matmul would be.
            self.fault_plan.maybe_delay(SCORER_DELAY)
            self.fault_plan.maybe_fail(SCORER_ERROR)
        requests = [pending.request for pending in entries]
        began = self._clock()
        with maybe_span(
            self.tracer, "batch.warm", cat="serving", attrs={"n_requests": len(entries)}
        ):
            results = self.engine.topk_rows(
                [request.user for request in requests],
                [request.k for request in requests],
                [request.filters for request in requests],
                exclude_train=requests[0].exclude_train,
            )
        self._deliver(entries, results, began, WARM, len(entries) * self.index.n_items)

    def _answer_cold(self, entries: List[PendingRecommendation]) -> None:
        """Rank a group of cold users from their price-profile score rows."""
        began = self._clock()
        rows: Dict[Optional[Tuple], np.ndarray] = {}
        with maybe_span(
            self.tracer, "batch.cold", cat="serving", attrs={"n_requests": len(entries)}
        ):
            results = [self._rank_from_profile(pending.request, rows) for pending in entries]
        self._deliver(entries, results, began, COLD, len(rows) * self.index.n_items)

    def _answer_degraded(self, entries: List[PendingRecommendation], prefix: str) -> None:
        """Walk the degradation ladder for a group the backend cannot answer.

        Per request: its stale LRU-cached answer when one exists (stage
        ``{prefix}_cache``), otherwise a price-profile fallback ranking
        (stage ``{prefix}_profile`` — the paper's cold-start path, which
        needs no model matmul).
        """
        entries = [pending for pending in entries if not pending.done]
        began = self._clock()
        rows: Dict[Optional[Tuple], np.ndarray] = {}
        with maybe_span(
            self.tracer, "batch.degraded", cat="serving",
            attrs={"n_requests": len(entries), "prefix": prefix},
        ):
            results = []
            for pending in entries:
                stale = self._cache_get(pending.request.cache_key())
                results.append(
                    stale if stale is not None
                    else self._rank_from_profile(pending.request, rows)
                )
        self._deliver(entries, results, began, COLD, self.index.n_items, degraded_by=prefix)

    def _rank_from_profile(
        self, request: Request, rows: Dict[Optional[Tuple], np.ndarray]
    ) -> Union[RetrievalResult, Exception]:
        """Rank one user from a price-profile score row (cold path and ladder).

        Fallback scores depend only on the profile (and the frozen index),
        so ``rows`` memoizes the score row per profile across the group — a
        lane carries one profile, so normally that is one row.  A ranking
        that throws is *returned*, not raised: it fails its own request at
        delivery and never poisons the rest of its group.
        """
        try:
            key = _profile_key(request)
            scores = rows.get(key)
            if scores is None:
                scores = rows[key] = self.fallback.scores(request.price_profile)
            exclude = None
            if request.exclude_train and 0 <= request.user < self.index.n_users:
                exclude = self.index.excluded_items(request.user)
            return self.engine.topk_from_scores(
                scores, k=request.k, exclude_items=exclude, filters=request.filters
            )
        except Exception as error:  # noqa: BLE001 - delivered via result()
            return error

    def _deliver(
        self,
        entries: List[PendingRecommendation],
        results: Sequence[Union[RetrievalResult, Recommendation, Exception]],
        began: float,
        source: str,
        n_items_scored: int,
        degraded_by: Optional[str] = None,
    ) -> None:
        """The one exit of the pipeline: answer, cache, resolve, account.

        ``results`` lines up with ``entries``: a ranking, a stale cached
        :class:`Recommendation` (ladder only), or the exception that
        request's ranking raised.  A degraded answer (``degraded_by`` = the
        ladder prefix) is tagged with its stage, counted, and never cached,
        so a recovered backend serves fresh answers.  Latency is booked for
        exactly the requests answered here, each with its real queue wait.
        Each answer's arrays are made read-only here, once.
        """
        seconds = self._clock() - began
        waits = []
        for pending, result in zip(entries, results):
            if pending.done:
                continue
            request = pending.request
            try:
                if isinstance(result, Exception):
                    raise result
                items, scores = _read_only(result.items), _read_only(result.scores)
                if degraded_by is None:
                    answer = Recommendation(
                        user=request.user, items=items, scores=scores, source=source,
                    )
                    self._cache_put(request.cache_key(), answer)
                else:
                    stale = isinstance(result, Recommendation)
                    answer = DegradedResponse(
                        user=request.user, items=items, scores=scores,
                        source=result.source if stale else source, cached=stale,
                        stage=f"{degraded_by}_{'cache' if stale else 'profile'}",
                    )
                    self.stats.record_fallback(answer.stage)
                pending._resolve(answer)
                waits.append(began - pending.enqueued_at)
            except Exception as error:  # noqa: BLE001 - delivered via result()
                if degraded_by is not None:
                    failure = BackendError(f"degradation ladder failed too: {error!r}")
                    failure.__cause__ = error
                    error = failure
                pending._fail(error)
        self.stats.record_batch(
            n_requests=len(waits), n_items_scored=n_items_scored,
            seconds=seconds, queue_waits=waits,
        )

    def fail_pending(self, error: Exception) -> int:
        """Fail every queued request with ``error``; returns how many.

        The flusher supervisor's tool: when the gateway's background
        flusher dies, the requests it was responsible for must fail loudly
        and promptly rather than hang until a client timeout.
        """
        with self._lock:
            queue, self._queue = self._queue, []
        _fail_all(queue, error)
        self._sync_gauges()
        return len(queue)

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

    def _cache_put(self, key: Tuple, answer: Recommendation) -> None:
        if self.cache_capacity < 1:
            return
        entry = replace(answer, cached=True)  # what every hit of the key is handed
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
            return self._queue[0].enqueued_at if self._queue else None

    def _sync_gauges(self) -> None:
        self._queue_depth_gauge.set(len(self._queue))
        self._cache_entries_gauge.set(len(self._cache))
