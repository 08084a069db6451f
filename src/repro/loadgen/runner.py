"""Load runners: drive a workload through a gateway, measure what matters.

Two disciplines (see the package docstring for when each is the right
tool), one report.  Client-side end-to-end latency is measured around the
``submit → result`` pair in the closed loop; the serving-side view —
queue wait plus batch compute, the number the SLO is written against —
always comes from the service's own
:class:`~repro.serving.stats.ServingStats`, so the two can be compared
directly in one :class:`LoadReport`.

Shed requests (``Overloaded`` / ``RateLimited`` / ``GatewayClosed``) are
*expected outcomes* under overload, not errors: the runners count them by
reason and keep going, which is what lets an open-loop burst run
demonstrate that queue depth stays bounded while the overflow is
accounted for in ``gateway_shed_total``.

Under chaos (a :class:`~repro.faults.FaultPlan` installed in the stack)
two more outcome classes appear and the runners account for both:
degraded answers (:class:`~repro.serving.service.DegradedResponse`,
counted in ``n_degraded``) and typed post-admission failures
(``DeadlineExceeded`` / ``FlusherCrashed`` / ``BackendError`` …,
counted by class name in ``n_failed``).  A stored
error must never kill a worker thread — every admitted request resolves
to exactly one of ok / degraded / timeout / failed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..serving.errors import GatewayClosed, GatewayError, Overloaded, RateLimited
from ..serving.gateway import ServingGateway
from ..serving.service import DegradedResponse, ResultTimeout
from .workload import ArrivalSchedule, LoadRequest, arrival_times

#: exception class → shed-reason key (mirrors gateway_shed_total labels)
_SHED_REASON = {
    Overloaded: "queue_full",
    RateLimited: "rate_limited",
    GatewayClosed: "closed",
}


def _await_outcome(
    pending,
    timeout_s: float,
    latencies: List[float],
    failed: Dict[str, int],
    began: Optional[float] = None,
) -> tuple:
    """Resolve one admitted request into (ok_delta, degraded_delta, timeout_delta).

    Failures land in ``failed`` keyed by exception class name; nothing
    propagates, so runner threads survive any stored backend error.
    """
    try:
        answer = pending.result(timeout=timeout_s)
    except ResultTimeout:
        return 0, 0, 1
    except Exception as exc:  # typed GatewayError or a raw backend error
        name = type(exc).__name__ if isinstance(exc, GatewayError) else "other"
        failed[name] = failed.get(name, 0) + 1
        return 0, 0, 0
    if began is not None:
        latencies.append(time.perf_counter() - began)
    if isinstance(answer, DegradedResponse):
        return 0, 1, 0
    return 1, 0, 0


@dataclass
class LoadReport:
    """What one load run produced, client view and serving view side by side.

    ``qps`` counts *completed* requests over wall time (the sustained
    number a capacity plan uses); ``offered_qps`` counts submit attempts,
    so ``offered_qps - qps`` under an open-loop burst is the shed rate.
    ``p50_ms``/``p99_ms`` are the serving-side end-to-end percentiles;
    ``client_p50_ms``/``client_p99_ms`` wrap the full submit→result round
    trip (closed loop only; 0.0 when not measured).
    """

    mode: str
    n_requests: int
    n_ok: int
    n_timeout: int
    duration_s: float
    offered_qps: float
    qps: float
    p50_ms: float
    p99_ms: float
    client_p50_ms: float
    client_p99_ms: float
    max_queue_depth: int
    n_shed: Dict[str, int] = field(default_factory=dict)
    serving: Dict[str, float] = field(default_factory=dict)
    #: admitted requests answered by the degradation ladder (chaos runs)
    n_degraded: int = 0
    #: admitted requests that resolved to an error, keyed by exception class
    n_failed: Dict[str, int] = field(default_factory=dict)

    @property
    def shed_total(self) -> int:
        return sum(self.n_shed.values())

    @property
    def failed_total(self) -> int:
        return sum(self.n_failed.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "n_requests": self.n_requests,
            "n_ok": self.n_ok,
            "n_degraded": self.n_degraded,
            "n_shed": dict(self.n_shed),
            "shed_total": self.shed_total,
            "n_failed": dict(self.n_failed),
            "failed_total": self.failed_total,
            "n_timeout": self.n_timeout,
            "duration_s": self.duration_s,
            "offered_qps": self.offered_qps,
            "qps": self.qps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "client_p50_ms": self.client_p50_ms,
            "client_p99_ms": self.client_p99_ms,
            "max_queue_depth": self.max_queue_depth,
            "serving": dict(self.serving),
        }


def _percentile_ms(latencies: Sequence[float], q: float) -> float:
    if not latencies:
        return 0.0
    return float(np.percentile(np.asarray(latencies, dtype=np.float64), q)) * 1e3


def _finish_report(
    mode: str,
    gateway: ServingGateway,
    n_requests: int,
    n_ok: int,
    n_shed: Dict[str, int],
    n_timeout: int,
    duration: float,
    offered: int,
    latencies: Sequence[float],
    max_depth: int,
    n_degraded: int = 0,
    n_failed: Optional[Dict[str, int]] = None,
) -> LoadReport:
    serving = gateway.service.stats.snapshot()
    duration = max(duration, 1e-9)
    return LoadReport(
        mode=mode,
        n_requests=n_requests,
        n_ok=n_ok,
        n_shed=dict(n_shed),
        n_timeout=n_timeout,
        duration_s=duration,
        offered_qps=offered / duration,
        qps=n_ok / duration,
        p50_ms=serving.get("latency_p50_ms", 0.0),
        p99_ms=serving.get("latency_p99_ms", 0.0),
        client_p50_ms=_percentile_ms(latencies, 50),
        client_p99_ms=_percentile_ms(latencies, 99),
        max_queue_depth=max_depth,
        serving=serving,
        n_degraded=n_degraded,
        n_failed=dict(n_failed or {}),
    )


def run_closed_loop(
    gateway: ServingGateway,
    requests: Sequence[LoadRequest],
    threads: int = 8,
    result_timeout_s: float = 30.0,
) -> LoadReport:
    """N threads, each waiting for its answer before asking again.

    Requests are dealt round-robin so every thread sees the same zipfian
    mix.  The concurrency level IS the offered load: with all threads
    blocked in ``result()``, flushes come from the gateway's deadline
    trigger, so this measures the dual-trigger pipeline the way a fleet of
    synchronous API clients would exercise it.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    shards: List[List[LoadRequest]] = [list(requests[i::threads]) for i in range(threads)]
    results: List[tuple] = []
    results_lock = threading.Lock()

    def worker(shard: List[LoadRequest]) -> None:
        latencies: List[float] = []
        shed: Dict[str, int] = {}
        failed: Dict[str, int] = {}
        ok = degraded = timeouts = 0
        max_depth = 0
        for request in shard:
            began = time.perf_counter()
            try:
                pending = gateway.submit(request.user, k=request.k)
            except GatewayError as exc:
                reason = _SHED_REASON.get(type(exc), "other")
                shed[reason] = shed.get(reason, 0) + 1
                continue
            max_depth = max(max_depth, gateway.queue_depth)
            d_ok, d_deg, d_to = _await_outcome(
                pending, result_timeout_s, latencies, failed, began
            )
            ok += d_ok
            degraded += d_deg
            timeouts += d_to
        with results_lock:
            results.append((latencies, shed, timeouts, max_depth, ok, degraded, failed))

    pool = [
        threading.Thread(target=worker, args=(shard,), name=f"repro-loadgen-{i}")
        for i, shard in enumerate(shards)
        if shard
    ]
    began = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    duration = time.perf_counter() - began

    latencies: List[float] = []
    shed: Dict[str, int] = {}
    failed: Dict[str, int] = {}
    ok = degraded = timeouts = 0
    max_depth = 0
    for thread_lat, thread_shed, thread_timeouts, thread_depth, thread_ok, thread_deg, thread_failed in results:
        latencies.extend(thread_lat)
        for reason, count in thread_shed.items():
            shed[reason] = shed.get(reason, 0) + count
        for name, count in thread_failed.items():
            failed[name] = failed.get(name, 0) + count
        timeouts += thread_timeouts
        max_depth = max(max_depth, thread_depth)
        ok += thread_ok
        degraded += thread_deg
    return _finish_report(
        "closed", gateway, len(requests), ok, shed, timeouts,
        duration, len(requests), latencies, max_depth,
        n_degraded=degraded, n_failed=failed,
    )


def run_open_loop(
    gateway: ServingGateway,
    requests: Sequence[LoadRequest],
    schedule: Optional[ArrivalSchedule] = None,
    result_timeout_s: float = 30.0,
) -> LoadReport:
    """Requests arrive on the schedule's clock whether or not the system
    keeps up — the discipline that actually tests backpressure.

    One dispatcher paces submissions against wall time (sleeping until
    each arrival offset) and never blocks on results; sheds are counted
    and skipped.  After the last arrival everything still in flight is
    drained and awaited, so ``qps``/percentiles cover every admitted
    request and the run can assert queue depth stayed bounded throughout.
    """
    schedule = schedule or ArrivalSchedule()
    offsets = arrival_times(schedule, len(requests))
    pending_list = []
    shed: Dict[str, int] = {}
    timeouts = 0
    max_depth = 0
    began = time.perf_counter()
    for request, offset in zip(requests, offsets):
        delay = began + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        try:
            pending = gateway.submit(request.user, k=request.k)
        except GatewayError as exc:
            reason = _SHED_REASON.get(type(exc), "other")
            shed[reason] = shed.get(reason, 0) + 1
            continue
        pending_list.append(pending)
        max_depth = max(max_depth, gateway.queue_depth)
    gateway.drain()
    n_ok = degraded = 0
    failed: Dict[str, int] = {}
    for pending in pending_list:
        d_ok, d_deg, d_to = _await_outcome(pending, result_timeout_s, [], failed)
        n_ok += d_ok
        degraded += d_deg
        timeouts += d_to
    duration = time.perf_counter() - began
    return _finish_report(
        "open", gateway, len(requests), n_ok, shed, timeouts,
        duration, len(requests), (), max_depth,
        n_degraded=degraded, n_failed=failed,
    )
