"""Serving-side observability: latency percentiles, QPS, cache hit rate.

Since the observability layer landed, :class:`ServingStats` is backed by a
:class:`~repro.obs.metrics.MetricsRegistry` — every count and latency the
service records lands in named registry series (``serving_requests_total``,
``serving_request_latency_seconds``, ...) so a ``/metrics`` endpoint or a
cross-process merge sees exactly what :meth:`ServingStats.snapshot` reports.
The snapshot keys themselves are unchanged: dashboards and the CLI keep
reading the same 13 fields they always have.

Latency is now **end-to-end**: a request's recorded latency is its queue
wait (submit → flush) plus its batch compute time, so p50/p99 reflect what
a caller actually experienced.  The compute-only and wait-only views are
preserved as separate histograms (``serving_batch_duration_seconds``,
``serving_queue_wait_seconds``) and surfaced by
:meth:`ServingStats.extended_snapshot`.

No clock is consulted unless the service records into these counters, and
the clock itself is injectable for deterministic tests.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..obs.metrics import MetricsRegistry, log_buckets
from .resilience import FALLBACK_STAGES

#: terminal request outcomes (pre-seeded so accounting series always scrape)
OUTCOMES = ("ok", "degraded", "failed")

#: who asked for a flush (pre-seeded likewise): the size trigger, the gateway's
#: deadline timer, a gateway drain/close, or a blocking caller (``result()``,
#: ``recommend_many``, ``swap_index``)
FLUSH_TRIGGERS = ("size", "deadline", "drain", "sync")


class LatencyRecorder:
    """Sliding window of request latencies (seconds) with percentiles.

    The window gives *exact* percentiles over the last N requests — the
    complement to the registry histogram's mergeable-but-bucketed view.
    Percentile and mean results are cached until the next :meth:`record`,
    so a scrape loop hitting ``snapshot()`` repeatedly costs O(1) per
    scrape instead of rebuilding an O(window) numpy array every call.
    """

    def __init__(self, window: int = 8192) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._samples: deque = deque(maxlen=window)
        self._array: Optional[np.ndarray] = None
        self._percentiles: Dict[float, float] = {}
        self._mean: Optional[float] = None

    def record(self, seconds: float) -> None:
        self._samples.append(float(seconds))
        self._array = None
        self._percentiles.clear()
        self._mean = None

    def __len__(self) -> int:
        return len(self._samples)

    def _values(self) -> np.ndarray:
        # Insertion order is preserved so the cached mean is bit-identical
        # to a fresh np.mean over the deque (pairwise summation is
        # order-sensitive in the last ulp).
        if self._array is None:
            self._array = np.fromiter(self._samples, dtype=np.float64)
        return self._array

    def percentile(self, q: float) -> float:
        """q-th percentile latency in seconds (0 when nothing recorded)."""
        if not self._samples:
            return 0.0
        cached = self._percentiles.get(q)
        if cached is None:
            cached = self._percentiles[q] = float(np.percentile(self._values(), q))
        return cached

    def mean(self) -> float:
        if not self._samples:
            return 0.0
        if self._mean is None:
            self._mean = float(np.mean(self._values()))
        return self._mean


class ServingStats:
    """Counters the :class:`~repro.serving.service.RecommenderService` keeps.

    All counts live in the attached registry (shared with ``/metrics`` when
    the caller passes one in); the historical attribute API (``requests``,
    ``cache_hits``...) is preserved as read-only properties over it.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        window: int = 8192,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._clock = clock or time.perf_counter
        self.registry = registry if registry is not None else MetricsRegistry()
        self.started_at = self._clock()
        self.latency = LatencyRecorder(window=window)
        self._requests = self.registry.counter(
            "serving_requests_total", "Requests submitted, by scenario route.",
            labels=("route",),
        )
        self._cache_lookups = self.registry.counter(
            "serving_cache_lookups_total", "Result-cache lookups, by outcome.",
            labels=("result",),
        )
        self._batches = self.registry.counter(
            "serving_batches_total", "Micro-batches executed."
        )
        self._items_scored = self.registry.counter(
            "serving_items_scored_total", "Items scored across all batches."
        )
        self._latency_hist = self.registry.histogram(
            "serving_request_latency_seconds",
            "End-to-end request latency (queue wait + batch compute).",
        )
        self._batch_duration = self.registry.histogram(
            "serving_batch_duration_seconds", "Compute time of one micro-batch flush."
        )
        self._queue_wait = self.registry.histogram(
            "serving_queue_wait_seconds", "Time a request spent queued before its flush."
        )
        self._ann_index_bytes = self.registry.gauge(
            "ann_index_bytes",
            "Resident/paged bytes of the attached ANN index, by tier and kind.",
            labels=("tier", "kind"),
        )
        self._ann_tiers: Dict[str, float] = {"hot": 0.0, "cold": 0.0}
        # Pre-seed with kind="none" so the family is scrapeable before any
        # ANN index is attached (same idiom as the gateway shed series).
        self.set_ann_index_bytes({"kind": "none", "tiers": {"hot": 0, "cold": 0}})
        # Outcome + resilience accounting.  The chaos gate's invariant is
        # admitted requests == ok + degraded + failed, verified off a live
        # /metrics scrape — hence every series is pre-seeded to exist from
        # scrape one.  (The gateway_* names match the gateway-side families
        # they complete; they live here because the service resolves the
        # requests.)
        self._outcomes = self.registry.counter(
            "serving_outcomes_total", "Resolved requests, by terminal outcome.",
            labels=("outcome",),
        )
        for outcome in OUTCOMES:
            self._outcomes.labels_key((outcome,), 0)
        self._fallbacks = self.registry.counter(
            "gateway_fallbacks_total",
            "Degraded answers served, by degradation-ladder stage.",
            labels=("stage",),
        )
        for stage in FALLBACK_STAGES:
            self._fallbacks.labels_key((stage,), 0)
        self._retries = self.registry.counter(
            "gateway_retries_total", "Backend retry attempts after transient errors."
        )
        self._deadline_exceeded = self.registry.counter(
            "gateway_deadline_exceeded_total",
            "Requests failed because their deadline passed before their batch.",
        )
        self._flushes = self.registry.counter(
            "gateway_flushes_total", "Batch flushes executed, by trigger.",
            labels=("trigger",),
        )
        for trigger in FLUSH_TRIGGERS:
            self._flushes.labels_key((trigger,), 0)
        self._flush_size = self.registry.histogram(
            "gateway_batch_size", "Requests taken per non-empty flush.",
            buckets=log_buckets(1.0, 4096.0, per_decade=8),
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(self, warm: bool) -> None:
        self._requests.labels_key(("warm" if warm else "cold",), 1)

    def set_ann_index_bytes(self, report: Optional[Dict]) -> None:
        """Publish an ANN index's :meth:`memory_report` to the gauge family.

        ``report`` is the shared report shape (``kind`` + ``tiers``); pass
        ``None`` to mean "no ANN index attached" (zeros under kind
        ``none``).  Series from a previously attached index are zeroed so a
        hot swap to a different kind never leaves stale bytes behind.
        """
        if report is None:
            report = {"kind": "none", "tiers": {"hot": 0, "cold": 0}}
        kind = str(report.get("kind", "none"))
        tiers = report.get("tiers", {})
        for labels, _ in self._ann_index_bytes.items():
            if labels["kind"] != kind:
                self._ann_index_bytes.set_key((labels["tier"], labels["kind"]), 0.0)
        self._ann_tiers = {"hot": 0.0, "cold": 0.0}
        for tier in ("hot", "cold"):
            value = float(tiers.get(tier, 0))
            self._ann_index_bytes.set_key((tier, kind), value)
            self._ann_tiers[tier] = value

    def record_cache(self, hit: bool) -> None:
        self._cache_lookups.labels_key(("hit" if hit else "miss",), 1)

    def record_outcome(self, outcome: str) -> None:
        """Count one request's terminal outcome: ok, degraded, or failed."""
        self._outcomes.labels_key((outcome,), 1)

    def record_fallback(self, stage: str) -> None:
        """Count one degraded answer by its degradation-ladder stage."""
        self._fallbacks.labels_key((stage,), 1)

    def record_retry(self) -> None:
        self._retries.inc()

    def record_deadline_exceeded(self) -> None:
        self._deadline_exceeded.inc()

    def record_flush(self, trigger: str, n_requests: int) -> None:
        """Count one non-empty flush under whoever asked for it."""
        self._flushes.labels_key((trigger,), 1)
        self._flush_size.observe(n_requests)

    def record_batch(
        self,
        n_requests: int,
        n_items_scored: int,
        seconds: float,
        queue_waits: Sequence[float],
    ) -> None:
        """Account one executed batch.

        Every request in a batch completes when the batch does, so each one
        records the full batch duration as its latency — percentiles then
        reflect real completion times (tail batches show up in p99) rather
        than an averaged-down ``seconds / n``.  ``queue_waits`` carries each
        request's time spent queued before the flush; it is added to that
        request's latency so p50/p99 are **end-to-end**, and recorded
        separately so the wait-only distribution stays visible.
        """
        self._batches.inc()
        self._items_scored.inc(n_items_scored)
        self._batch_duration.observe(seconds)
        if len(queue_waits) != n_requests:
            raise ValueError(
                f"queue_waits has {len(queue_waits)} entries for {n_requests} requests"
            )
        for wait in queue_waits:
            end_to_end = seconds + max(float(wait), 0.0)
            self.latency.record(end_to_end)
            self._latency_hist.observe(end_to_end)
            self._queue_wait.observe(max(float(wait), 0.0))

    # ------------------------------------------------------------------
    # Reading (historical attribute API, now registry-backed)
    # ------------------------------------------------------------------
    @property
    def requests(self) -> int:
        return int(self._requests.value(route="warm") + self._requests.value(route="cold"))

    @property
    def warm_requests(self) -> int:
        return int(self._requests.value(route="warm"))

    @property
    def cold_requests(self) -> int:
        return int(self._requests.value(route="cold"))

    @property
    def cache_hits(self) -> int:
        return int(self._cache_lookups.value(result="hit"))

    @property
    def cache_misses(self) -> int:
        return int(self._cache_lookups.value(result="miss"))

    @property
    def batches(self) -> int:
        return int(self._batches.value())

    def outcome_count(self, outcome: str) -> int:
        return int(self._outcomes.value(outcome=outcome))

    def fallback_count(self, stage: Optional[str] = None) -> int:
        if stage is not None:
            return int(self._fallbacks.value(stage=stage))
        return sum(int(self._fallbacks.value(stage=s)) for s in FALLBACK_STAGES)

    def flush_count(self, trigger: str) -> int:
        return int(self._flushes.value(trigger=trigger))

    @property
    def retries(self) -> int:
        return int(self._retries.value())

    @property
    def deadline_exceeded(self) -> int:
        return int(self._deadline_exceeded.value())

    @property
    def items_scored(self) -> int:
        return int(self._items_scored.value())

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return max(self._clock() - self.started_at, 1e-12)

    def qps(self) -> float:
        return self.requests / self.elapsed()

    def cache_hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    def snapshot(self) -> Dict[str, float]:
        """One flat dict for logging/dashboards (keys are stable API)."""
        return {
            "requests": float(self.requests),
            "warm_requests": float(self.warm_requests),
            "cold_requests": float(self.cold_requests),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "cache_hit_rate": self.cache_hit_rate(),
            "batches": float(self.batches),
            "items_scored": float(self.items_scored),
            "qps": self.qps(),
            "latency_p50_ms": self.latency.percentile(50) * 1e3,
            "latency_p99_ms": self.latency.percentile(99) * 1e3,
            "latency_mean_ms": self.latency.mean() * 1e3,
            "elapsed_s": self.elapsed(),
            "ann_index_bytes_hot": self._ann_tiers["hot"],
            "ann_index_bytes_cold": self._ann_tiers["cold"],
            "ann_index_bytes_total": self._ann_tiers["hot"] + self._ann_tiers["cold"],
        }

    def extended_snapshot(self) -> Dict[str, float]:
        """:meth:`snapshot` plus queue-wait/compute and outcome breakdowns."""
        out = self.snapshot()
        out.update(
            {
                "queue_wait_p50_ms": self._queue_wait.percentile(50) * 1e3,
                "queue_wait_p99_ms": self._queue_wait.percentile(99) * 1e3,
                "queue_wait_mean_ms": self._queue_wait.mean() * 1e3,
                "batch_duration_p50_ms": self._batch_duration.percentile(50) * 1e3,
                "batch_duration_p99_ms": self._batch_duration.percentile(99) * 1e3,
                "batch_duration_mean_ms": self._batch_duration.mean() * 1e3,
                "retries": float(self.retries),
                "deadline_exceeded": float(self.deadline_exceeded),
                "fallbacks": float(self.fallback_count()),
            }
        )
        for outcome in OUTCOMES:
            out[f"outcome_{outcome}"] = float(self.outcome_count(outcome))
        return out
