"""The always-on concurrent front door of the service: admission and the timer.

:class:`~repro.serving.service.RecommenderService` owns the request
pipeline — the one queue, the size trigger (``max_batch_size``), every
flush and its accounting.  On its own it is a *library*: a batch only runs
when some caller crosses ``max_batch_size`` or blocks on a result.
:class:`ServingGateway` adds the two things that make it a *service* under
heavy concurrent traffic, and nothing else:

* **Admission control.**  ``submit()`` is safe from any number of threads;
  the queue depth is strictly bounded (admission is serialized on one
  condition variable, so the bound cannot be raced past).  When the queue
  is full the request is *shed* with a typed :class:`Overloaded` error —
  the caller backs off; the requests already queued keep their latency.
  A classic token bucket per tenant (``rate_limit`` requests/s sustained,
  ``rate_burst`` peak) rejects with :class:`RateLimited`; tenants are
  admission-control identities only, the service below never sees them.
  An admitted request is handed to ``service.enqueue`` under the admission
  lock; if that made the size trigger due, the submitting thread runs
  ``service.flush("size")`` *after releasing it*, so admission is never
  blocked behind a batch.

* **The deadline timer.**  A background flusher thread sleeps exactly
  until the oldest queued request has waited ``max_wait_ms`` and then asks
  the service for a ``deadline`` flush — the second half of dual-trigger
  batching, and what bounds latency when traffic is too thin to fill a
  batch.  The thread is supervised: a crash fails the queued requests with
  a typed :class:`FlusherCrashed` and restarts the loop.

Callers hold the same :class:`~repro.serving.service.PendingRecommendation`
futures the service hands out; ``result(timeout=...)`` waits without
forcing a flush, which is what keeps batches large under concurrent load
(a blocking ``result()`` still works and is counted as a ``sync`` flush).
``close()`` stops admission (:class:`GatewayClosed` shed), retires the
flusher thread and drains what is still queued.  :meth:`swap_index`
cooperates with the service's hot-swap: in-flight requests drain against
the old index under the service's flush lock, so swap-under-load never
deadlocks the flusher or produces neither-index results.

Lock order: the admission condition is taken before the service's queue
lock and never while a flush runs (see :mod:`repro.serving.service`).

Observable here: ``gateway_requests_total`` (by tenant),
``gateway_shed_total`` (by reason), the ``gateway_queue_depth`` gauge and
``gateway_flusher_restarts_total``, plus a ``gateway.admit`` span per
submit and a ``gateway.batch`` span around each flush the gateway asks for.
``gateway_flushes_total`` (by trigger) and ``gateway_batch_size`` are
counted by the service, once per flush, whoever asked.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..faults import FLUSHER_CRASH, FaultPlan
from ..obs.trace import Tracer, maybe_span
from .errors import (  # noqa: F401 - historical import location, re-exported
    BackendError,
    DeadlineExceeded,
    FlusherCrashed,
    GatewayClosed,
    GatewayError,
    Overloaded,
    RateLimited,
)
from .filters import Filter
from .service import PendingRecommendation, RecommenderService
from .stats import FLUSH_TRIGGERS

#: shed reasons (pre-seeded so the series exist on /metrics from scrape one)
SHED_REASONS = ("queue_full", "rate_limited", "closed")


class TokenBucket:
    """Token bucket: ``rate`` tokens/s refill, at most ``burst`` stored.

    ``try_acquire`` is lock-free from the caller's perspective — the
    gateway serializes admission anyway — but keeps its own lock so the
    bucket is independently thread-safe.
    """

    def __init__(self, rate: float, burst: float, clock) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._refilled_at = clock()
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._refilled_at) * self.rate
            )
            self._refilled_at = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


@dataclass
class GatewayConfig:
    """Gateway knobs (none of them can change results, only behavior under load).

    The batch size is the service's (``RecommenderService(max_batch_size=)``).
    ``rate_limit=None`` disables rate limiting; ``rate_burst=None`` defaults
    to one second of sustained rate (minimum 1).  ``deadline_ms`` is the
    default per-request deadline stamped at admission (``None`` = no
    deadline); ``submit`` can override it per request.
    """

    max_queue_depth: int = 1024
    max_wait_ms: float = 2.0
    rate_limit: Optional[float] = None
    rate_burst: Optional[float] = None
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.max_wait_ms <= 0:
            raise ValueError(f"max_wait_ms must be > 0, got {self.max_wait_ms}")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError(f"rate_limit must be > 0, got {self.rate_limit}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {self.deadline_ms}")


class ServingGateway:
    """Bounded, rate-limited admission plus the deadline timer over one service.

    Attaching changes nothing about the service: its queue, its
    ``max_batch_size`` and its flush accounting stay its own, and its
    synchronous helpers (``recommend``, ``recommend_many``,
    ``pending.result()`` with no timeout) keep working beside the gateway.
    """

    def __init__(
        self,
        service: RecommenderService,
        config: Optional[GatewayConfig] = None,
        tracer: Optional[Tracer] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.service = service
        self.fault_plan = fault_plan if fault_plan is not None else service.fault_plan
        self.config = config or GatewayConfig()
        self.registry = service.registry
        self.tracer = service.tracer if tracer is None else tracer
        self._clock = service._clock

        self._cond = threading.Condition()
        self._closed = False
        self._buckets: Dict[str, TokenBucket] = {}

        self._admitted = self.registry.counter(
            "gateway_requests_total", "Requests admitted past the gateway, by tenant.",
            labels=("tenant",),
        )
        self._admitted.labels_key(("default",), 0)
        self._shed = self.registry.counter(
            "gateway_shed_total", "Requests rejected at admission, by reason.",
            labels=("reason",),
        )
        for reason in SHED_REASONS:
            self._shed.labels_key((reason,), 0)
        self._depth_gauge = self.registry.gauge(
            "gateway_queue_depth", "Requests waiting in the admission queue."
        )
        self._flusher_restarts = self.registry.counter(
            "gateway_flusher_restarts_total",
            "Background flusher threads restarted after an uncaught exception.",
        )

        self._flusher = self._start_flusher()

    def _start_flusher(self) -> threading.Thread:
        flusher = threading.Thread(
            target=self._flusher_main, name="repro-gateway-flusher", daemon=True
        )
        flusher.start()
        return flusher

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _bucket(self, tenant: str) -> Optional[TokenBucket]:
        if self.config.rate_limit is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            burst = self.config.rate_burst
            if burst is None:
                burst = max(1.0, self.config.rate_limit)
            bucket = self._buckets[tenant] = TokenBucket(
                self.config.rate_limit, burst, self._clock
            )
        return bucket

    def _refusal(self, tenant: str) -> Optional[Tuple[str, GatewayError]]:
        """``(shed reason, typed error)`` when admission says no, else None."""
        if self._closed:
            return "closed", GatewayClosed("gateway is draining; no new requests")
        bucket = self._bucket(tenant)
        if bucket is not None and not bucket.try_acquire():
            return "rate_limited", RateLimited(
                f"tenant {tenant!r} exceeded {self.config.rate_limit:g} req/s"
            )
        if self.service.queue_depth >= self.config.max_queue_depth:
            return "queue_full", Overloaded(
                f"admission queue at max depth {self.config.max_queue_depth}"
            )
        return None

    def submit(
        self,
        user: int,
        k: Optional[int] = None,
        exclude_train: bool = True,
        filters: Sequence[Filter] = (),
        price_profile: Optional[np.ndarray] = None,
        tenant: str = "default",
        deadline_ms: Optional[float] = None,
    ) -> PendingRecommendation:
        """Admit one request; returns the service's pending future.

        Raises :class:`GatewayClosed` / :class:`RateLimited` /
        :class:`Overloaded` instead of queuing when admission control says
        no — a shed request costs the caller one exception and the service
        nothing at all.  ``deadline_ms`` (default: the config's) bounds the
        request's queue wait; an expired request fails with
        :class:`DeadlineExceeded` at flush time.
        """
        if deadline_ms is None:
            deadline_ms = self.config.deadline_ms
        with maybe_span(
            self.tracer, "gateway.admit", cat="gateway", attrs={"tenant": tenant}
        ) as admit_span:
            with self._cond:
                refusal = self._refusal(tenant)
                if refusal is not None:
                    reason, error = refusal
                    self._shed.labels_key((reason,), 1)
                    admit_span.set_attr("outcome", reason)
                    raise error
                if not self._flusher.is_alive():
                    # Defense in depth: the supervisor should never let the
                    # flusher die, but admission must not depend on that.
                    self._flusher = self._start_flusher()
                pending = self.service.enqueue(
                    user, k, exclude_train, filters, price_profile,
                    None if deadline_ms is None else deadline_ms / 1e3,
                )
                self._admitted.labels_key((tenant,), 1)
                admit_span.set_attr("outcome", "admitted")
                if not pending.done:
                    # Wake the flusher so it can (re)arm the deadline timer.
                    self._cond.notify()
            # Outside the admission lock: the next submit is admitted while
            # this thread runs the batch.
            if pending.flush_due:
                self._flush("size")
            return pending

    # ------------------------------------------------------------------
    # The deadline timer
    # ------------------------------------------------------------------
    def _flush(self, trigger: str) -> int:
        """Ask the service for a flush (it does the counting) under a span."""
        with maybe_span(
            self.tracer, "gateway.batch", cat="gateway", attrs={"trigger": trigger}
        ) as span:
            # Looked up per call: instrumentation may wrap flush on the instance.
            flushed = self.service.flush(trigger)
            span.set_attr("n_requests", flushed)
        self.sync_gauges()
        return flushed

    def _flusher_main(self) -> None:
        """Thread target: the flusher loop under a supervisor.

        A loop that died silently would take the deadline trigger with it
        and leave thin traffic hanging until client timeouts.  The
        supervisor makes a crash loud and bounded instead: queued requests
        fail with the typed :class:`FlusherCrashed`,
        ``gateway_flusher_restarts_total`` counts it, the loop restarts.
        """
        while True:
            try:
                self._flusher_loop()
                return  # clean exit: the gateway closed
            except Exception as error:  # noqa: BLE001 - supervised restart
                self._flusher_restarts.inc()
                self.service.fail_pending(
                    FlusherCrashed(
                        f"gateway flusher crashed ({error!r}); queued requests "
                        "failed, flusher restarted"
                    )
                )
                with self._cond:
                    if self._closed:
                        return

    def _flusher_loop(self) -> None:
        max_wait = self.config.max_wait_ms / 1e3
        while True:
            with self._cond:
                while not self._closed and self.service.queue_depth == 0:
                    self._cond.wait()
                if self._closed:
                    return
            if self.fault_plan is not None:
                # Injected with requests queued, so the drill proves both
                # halves: fail-pending-loudly and keep-serving-afterwards.
                self.fault_plan.maybe_fail(FLUSHER_CRASH)
            oldest = self.service.oldest_enqueued_at()
            if oldest is None:
                continue  # a racing flush emptied the queue; go back to sleep
            delay = oldest + max_wait - self._clock()
            if delay > 0:
                with self._cond:
                    # Early notifies (new submits, close) just re-evaluate;
                    # the loop converges on the oldest request's deadline.
                    if self._closed:
                        return
                    self._cond.wait(timeout=delay)
                continue
            self._flush("deadline")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> int:
        """Flush everything queued right now (the gateway stays open)."""
        return self._flush("drain")

    def close(self) -> int:
        """Stop admission, retire the flusher, answer the stragglers.

        Returns how many queued requests the final drain resolved.
        Idempotent; the service keeps working on its own afterwards.
        """
        with self._cond:
            if self._closed:
                return 0
            self._closed = True
            self._cond.notify_all()
        self._flusher.join(timeout=30)
        return self._flush("drain")

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Index lifecycle + observability
    # ------------------------------------------------------------------
    def swap_index(self, index, ann=None) -> int:
        """Hot-swap the index while the gateway keeps serving.

        :meth:`RecommenderService.swap_index` drains in-flight requests
        against the old index under the service's flush lock; requests
        admitted during the swap are answered wholly by the new one.  The
        flusher needs no coordination — its flushes serialize on that lock.
        """
        evicted = self.service.swap_index(index, ann=ann)
        self.sync_gauges()
        return evicted

    @property
    def queue_depth(self) -> int:
        return self.service.queue_depth

    def flusher_restarts(self) -> int:
        """How many times the flusher supervisor restarted a crashed loop."""
        return int(self._flusher_restarts.value())

    def sync_gauges(self) -> None:
        """Refresh point-in-time gauges (also the /metrics per-scrape hook)."""
        self._depth_gauge.set(self.service.queue_depth)
        self.service._sync_gauges()

    def shed_count(self, reason: Optional[str] = None) -> int:
        """Requests shed so far (one reason, or all of them)."""
        if reason is not None:
            return int(self._shed.value(reason=reason))
        return sum(int(self._shed.value(reason=r)) for r in SHED_REASONS)

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of admission counters plus the service's flush counts."""
        out: Dict[str, float] = {
            "queue_depth": float(self.service.queue_depth),
            "max_queue_depth": float(self.config.max_queue_depth),
            "admitted": float(
                sum(series.value for _, series in self._admitted.items())
            ),
        }
        for reason in SHED_REASONS:
            out[f"shed_{reason}"] = float(self._shed.value(reason=reason))
        for trigger in FLUSH_TRIGGERS:
            out[f"flushes_{trigger}"] = float(self.service.stats.flush_count(trigger))
        out["flusher_restarts"] = float(self.flusher_restarts())
        return out
