"""``serve_scan`` and ``serve_hot``: one catalog, one gateway, two traffic mixes.

Both stand a saved-and-reloaded clustered catalog behind
``RecommenderService(cache_capacity=1024, max_batch_size=64)`` and
``ServingGateway(max_wait_ms=2.0)`` and drive it from one generator thread
(closed loop, one client): first with a sliding window of ``WINDOW``
unresolved requests — the saturation part, timed as a whole — then one
request at a time — the unloaded part, timed per request.

* ``serve_scan`` never repeats a key inside the cache window, so scoring
  (IVF search) does nearly all of the work and the cache none;
* ``serve_hot`` asks only for keys answered during set-up, so admission,
  cache lookup, result copy and the future are all of the work and scoring
  none.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.eval.ann import ann_recall_at_k
from repro.obs import Tracer
from repro.serving import GatewayConfig, RecommenderService, ServingGateway
from repro.serving.ann.ivf import IVFIndex, build_ivf
from repro.serving.errors import GatewayError
from repro.serving.filters import PriceBandFilter
from repro.serving.index import EmbeddingIndex
from repro.serving.retrieval import RetrievalEngine

from . import inputs

WINDOW = 256
MAX_WAIT_MS = 2.0
RESULT_TIMEOUT_S = 30.0
RECALL_K = 50

SIZES = {
    # windowed / unloaded are requests per slice
    "serve_scan": {
        "full": dict(n_users=20_000, n_items=24_000, windowed=3_000, unloaded=150,
                     probe=256),
        "smoke": dict(n_users=1_500, n_items=4_000, windowed=400, unloaded=20,
                      probe=64),
    },
    "serve_hot": {
        # hot set + probe keys (768 + 32 + 192) must fit the 1024-entry cache
        "full": dict(n_users=20_000, n_items=24_000, windowed=90_000, unloaded=25_000,
                     probe=192, hot_warm=768, hot_cold=32),
        "smoke": dict(n_users=1_500, n_items=4_000, windowed=4_000, unloaded=1_000,
                      probe=64, hot_warm=96, hot_cold=8),
    },
}


def _wait(pending):
    try:
        return pending.result(RESULT_TIMEOUT_S)
    except Exception as error:  # noqa: BLE001 - a failed request is counted, not raised
        return error


def run_windowed(submit, wait, calls, window: int) -> Tuple[list, float, float]:
    """Closed loop, ``window`` outstanding; returns (answers, wall s, cpu s)."""
    answers = []
    pending = deque()
    cpu = time.process_time()
    start = time.perf_counter()
    for call in calls:
        if len(pending) >= window:
            answers.append(wait(pending.popleft()))
        try:
            pending.append(submit(*call))
        except GatewayError as error:
            answers.append(error)
    while pending:
        answers.append(wait(pending.popleft()))
    seconds = time.perf_counter() - start
    return answers, seconds, time.process_time() - cpu


def run_unloaded(submit, wait, calls) -> Tuple[list, List[float]]:
    """One request at a time; returns (answers, per-request seconds)."""
    answers = []
    latencies = []
    clock = time.perf_counter
    for call in calls:
        start = clock()
        try:
            answer = wait(submit(*call))
        except GatewayError as error:
            answer = error
        latencies.append(clock() - start)
        answers.append(answer)
    return answers, latencies


class _Resolved:
    """Stand-in future for measuring the driver's own per-request cost."""

    def result(self, timeout=None):
        return None


_RESOLVED = _Resolved()


def _noop_submit(user, k, exclude_train, filters, profile):
    return _RESOLVED


class ServeWorkload:
    #: about how long a slice takes on the reference box in its slow state (2 s in its fast one)
    SLICE_SECONDS = 3.0
    SPARE_SLICES = True

    def __init__(self, name: str, seed: int, size: str, workdir: str) -> None:
        self.name = name
        self.hot = name == "serve_hot"
        self.seed = seed
        self.cfg = dict(SIZES[name][size])
        self.workdir = workdir
        self.source = inputs.clustered_index(
            self.cfg["n_users"], self.cfg["n_items"], seed
        )
        rng = np.random.default_rng([seed, 15])
        self.probe_users = np.sort(
            rng.choice(self.cfg["n_users"], size=self.cfg["probe"], replace=False)
        )
        self.keys = (
            inputs.hot_keys(self.cfg["n_users"], self.cfg["hot_warm"], self.cfg["hot_cold"], seed)
            if self.hot else []
        )
        self._profiles: Dict[Tuple, np.ndarray] = {}
        self.request_scale = 1.0
        self.attempted = 0
        self.failed = 0
        self.request_log: List[inputs.Request] = []  # every request sent, for the tests
        self.layer: Dict[str, float] = {}
        self.gateway: Optional[ServingGateway] = None
        self._setups = 0
        self._tracer = None

    # ------------------------------------------------------------------
    def _calls(self, requests: List[inputs.Request]) -> List[Tuple]:
        """Positional ``gateway.submit`` arguments, built outside the timed loop."""
        calls = []
        for request in requests:
            profile = None
            if request.profile is not None:
                profile = self._profiles.get(request.profile)
                if profile is None:
                    profile = self._profiles[request.profile] = np.asarray(request.profile)
            calls.append((request.user, request.k, True, inputs.filters_of(request), profile))
        return calls

    def _slice_requests(self, part: int) -> Tuple[List[inputs.Request], List[inputs.Request]]:
        n_windowed = max(WINDOW, int(self.cfg["windowed"] * self.request_scale))
        n_unloaded = max(10, int(self.cfg["unloaded"] * self.request_scale))
        if self.hot:
            both = inputs.hot_requests(self.keys, n_windowed + n_unloaded, self.seed, part)
        else:
            both = inputs.scan_requests(
                self.cfg["n_users"], n_windowed + n_unloaded, self.seed, part
            )
        return both[:n_windowed], both[n_windowed:]

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Index factors in memory -> a warm gateway ready for its first request."""
        if self.gateway is not None:
            self.gateway.close()
        self._setups += 1
        root = os.path.join(self.workdir, f"{self.name}_setup{self._setups}")
        os.makedirs(root)
        clock = time.perf_counter

        start = clock()
        ann = build_ivf(self.source)
        self.layer["serving.ann.build_s"] = clock() - start

        start = clock()
        index_path = self.source.save(os.path.join(root, "index"), format="dir")
        ann_path = ann.save(os.path.join(root, "ann"), format="dir")
        self.layer["serving.index.save_s"] = clock() - start

        start = clock()
        self.index = EmbeddingIndex.load(index_path)
        self.ann = IVFIndex.load(ann_path, self.index)
        self.layer["serving.index.load_s"] = clock() - start

        self.service = RecommenderService(
            self.index, cache_capacity=1024, max_batch_size=64, ann=self.ann
        )
        self.gateway = ServingGateway(self.service, GatewayConfig(max_wait_ms=MAX_WAIT_MS))
        if self.hot:
            # Every hot key answered once: the steady state is all hits.
            answers, _, _ = run_windowed(
                self.gateway.submit, _wait, self._calls(self.keys), WINDOW
            )
            self.expected = {
                key: (answer.items.tobytes(), answer.scores.tobytes())
                for key, answer in zip(self.keys, answers)
            }
        else:
            warm = inputs.scan_requests(self.cfg["n_users"], WINDOW, self.seed, part=inputs.PART_WARMUP)
            run_windowed(self.gateway.submit, _wait, self._calls(warm), WINDOW)

    def attach(self, tracer) -> None:
        """Record spans at the layer boundaries the gateway calls through."""
        self._tracer = tracer
        tracer.wrap_method(self.service, "flush", "serving.service.flush")
        tracer.wrap_method(self.service.engine, "topk", "serving.retrieval.topk")
        tracer.wrap_method(self.ann, "search", "serving.ann.search")
        tracer.wrap_method(self.ann, "probe", "serving.ann.probe")

    # ------------------------------------------------------------------
    def run_slice(self, part: int, traced: bool = False) -> Dict[str, float]:
        windowed, unloaded = self._slice_requests(part)
        submit, wait = self.gateway.submit, _wait
        if traced:
            submit = self._tracer.wrap(submit, "serving.gateway.submit")
            wait = self._tracer.wrap(wait, "serving.gateway.wait")
        calls = self._calls(windowed)
        answers, seconds, cpu = run_windowed(submit, wait, calls, WINDOW)
        single, latencies = run_unloaded(submit, wait, self._calls(unloaded))
        self._check(windowed, answers, self.hot)
        self._check(unloaded, single, self.hot)
        self.request_log.extend(windowed + unloaded)
        return {
            "throughput_per_s": len(calls) / seconds,
            "cpu_us_per_op": cpu / len(calls) * 1e6,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
        }

    def driver_overhead_us(self) -> float:
        """The generator loop's own cost per request (program calls replaced by no-ops)."""
        windowed, _ = self._slice_requests(part=inputs.PART_OVERHEAD)
        calls = self._calls(windowed)
        _, seconds, _ = run_windowed(_noop_submit, _wait, calls, WINDOW)
        return seconds / len(calls) * 1e6

    # ------------------------------------------------------------------
    def _check(self, requests: List[inputs.Request], answers: list, hot: bool) -> None:
        """Output checks; every bad answer is one failed operation.

        A scan answer has the requested length (or its filter's pool size),
        holds no item the user trained on, and respects its price band.  A
        hot answer is a cache hit, bit-identical to the warm-up answer.
        """
        self.attempted += len(requests)
        self.failed += abs(len(requests) - len(answers))
        index = self.index
        levels = index.item_price_levels
        for request, answer in zip(requests, answers):
            if isinstance(answer, Exception):
                self.failed += 1
                continue
            items = answer.items
            if hot:
                want = self.expected[request]
                ok = (
                    answer.cached
                    and items.tobytes() == want[0]
                    and answer.scores.tobytes() == want[1]
                )
            else:
                ok = len(items) == request.k or len(items) == self._pool_size(request)
                if ok and request.user < index.n_users:
                    ok = not np.isin(items, index.excluded_items(request.user)).any()
                if ok and request.band is not None:
                    band = levels[items]
                    ok = bool(((band >= request.band[0]) & (band <= request.band[1])).all())
            if not ok:
                self.failed += 1

    def _pool_size(self, request: inputs.Request) -> int:
        """How many items the request's masks leave (only consulted on short lists)."""
        allowed = np.ones(self.index.n_items, dtype=bool)
        if request.band is not None:
            allowed = PriceBandFilter(*request.band).mask(self.index)
        if request.user < self.index.n_users:
            allowed[self.index.excluded_items(request.user)] = False
        return min(request.k, int(allowed.sum()))

    # ------------------------------------------------------------------
    def finish(self) -> float:
        """recall@50 of served lists against the exact oracle, on the probe set."""
        probe = [inputs.Request(int(user), RECALL_K) for user in self.probe_users]
        calls = self._calls(probe)
        answers, _, _ = run_windowed(self.gateway.submit, _wait, calls, WINDOW)
        self._check(probe, answers, hot=False)
        if self.hot:
            # Asked again: the cached copies are what a hot caller is served.
            first = answers
            answers, _, _ = run_windowed(self.gateway.submit, _wait, calls, WINDOW)
            self.attempted += len(probe)
            self.failed += sum(
                isinstance(after, Exception)
                or not (after.cached and np.array_equal(before.items, after.items))
                for before, after in zip(first, answers)
                if not isinstance(before, Exception)
            )
        served = {
            request.user: answer.items
            for request, answer in zip(probe, answers)
            if not isinstance(answer, Exception)
        }
        # The oracle is the engine's full scan: the same item sets as
        # ``repro.eval.ann.exact_rankings`` (which the issue names) in 0.14 s
        # against 4.7 s for these 256 users, and the run's time cap has no room.
        exact = RetrievalEngine(self.index).topk(self.probe_users, RECALL_K, use_ann=False)
        exact = {
            int(user): result.items
            for user, result in zip(self.probe_users, exact) if int(user) in served
        }
        return ann_recall_at_k(exact, served, RECALL_K) if exact else 0.0

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.close()
            self.gateway = None

    # ------------------------------------------------------------------
    # Per-layer ledger
    # ------------------------------------------------------------------
    def ledger(self, tracer) -> Dict[str, float]:
        """Time each serving layer alone, through its public entry point."""
        out = dict(self.layer)
        index, ann, engine = self.index, self.ann, self.service.engine
        rng = np.random.default_rng([self.seed, 16])
        csr = (index.exclude_indptr, index.exclude_indices)
        batches = [np.sort(rng.choice(index.n_users, 64, replace=False)) for _ in range(5)]
        singles = [batch[:1] for batch in batches] * 4

        def timed(metric, fn, argsets) -> None:
            """Median milliseconds of ``fn`` over ``argsets``, one span per call."""
            samples = []
            for args in argsets:
                with tracer.span("ledger." + metric) as span:
                    fn(*args)
                samples.append(span.duration)
            out[metric] = statistics.median(samples) * 1e3

        def search(users):
            return ann.search(users, 10, exclude_csr=csr)

        def submit_flush(users) -> None:
            # The same 64-user batch without the gateway: 64 x submit + flush.
            pending = [direct.submit(int(user), 10) for user in users]
            direct.flush()
            for p in pending:
                p.result()

        direct = RecommenderService(index, cache_capacity=0, max_batch_size=1 << 30, ann=ann)
        b64 = [(batch,) for batch in batches]
        b1 = [(batch,) for batch in singles]
        stop = min(8192, index.n_items)
        timed("serving.ann.probe_ms_b64", ann.probe, b64)
        timed("serving.ann.search_ms_b64", search, b64)
        timed("serving.ann.search_ms_b1", search, b1)
        timed("serving.retrieval.topk_ms_b64", lambda users: engine.topk(users, 10), b64)
        timed("serving.retrieval.topk_ms_b1", lambda users: engine.topk(users, 10), b1)
        timed("serving.retrieval.exact_topk_ms_b64",
              lambda users: engine.topk(users, 10, use_ann=False), b64)
        timed("serving.index.score_block_ms_b64",
              lambda users: index.score_block(users, 0, stop), b64)
        timed("serving.filters.mask_build_ms",
              lambda band: PriceBandFilter(*band).mask(index),
              [(band,) for band in inputs.PRICE_BANDS])
        timed("serving.service.flush_ms_b64", submit_flush, b64)
        out["serving.service.overhead_ms_b64"] = (
            out["serving.service.flush_ms_b64"] - out["serving.retrieval.topk_ms_b64"]
        )
        sizes = ann.list_sizes()
        out["serving.ann.scanned_fraction"] = float(
            np.mean([sizes[ann.probe(batch)].sum(axis=1).mean() for batch in batches])
            / index.n_items
        )
        out.update(self._gateway_ledger(tracer, out["serving.retrieval.topk_ms_b1"]))
        out["bench.driver_overhead_us"] = self.driver_overhead_us()
        return out

    def _burst(self, gateway, n: int):
        """A windowed burst of ``n`` distinct warm users, k = 10, no filters.

        The same request shape as ``serving.service.flush_ms_b64``, so the
        two show one 64-user batch without and with the gateway side by
        side.  Returns (wall seconds, per-call submit seconds).
        """
        rng = np.random.default_rng([self.seed, 19])
        users = rng.permutation(self.cfg["n_users"])[:n]
        requests = [inputs.Request(int(user), 10) for user in users]
        submit_s: List[float] = []
        inner = gateway.submit
        clock = time.perf_counter

        def submit(*call):
            start = clock()
            pending = inner(*call)
            submit_s.append(clock() - start)
            return pending

        answers, seconds, _ = run_windowed(submit, _wait, self._calls(requests), WINDOW)
        self._check(requests, answers, hot=False)
        return seconds, submit_s

    def _gateway_ledger(self, tracer, topk_ms_b1: float) -> Dict[str, float]:
        out: Dict[str, float] = {}
        index, ann = self.index, self.ann
        n = max(WINDOW * 2, min(2_000, self.cfg["windowed"]))

        service = RecommenderService(index, cache_capacity=1024, max_batch_size=64, ann=ann)
        gateway = ServingGateway(service, GatewayConfig(max_wait_ms=MAX_WAIT_MS))
        try:
            with tracer.span("ledger.serving.gateway.loaded_burst"):
                plain, submit_s = self._burst(gateway, n)
            out["serving.gateway.batch_ms_b64"] = plain / (n / 64) * 1e3
            snap = gateway.snapshot()
            flushes = snap["flushes_size"] + snap["flushes_deadline"] + snap["flushes_drain"]
            out["serving.gateway.batch_size_mean"] = snap["admitted"] / max(1.0, flushes)
            out["serving.gateway.flush_size_share"] = snap["flushes_size"] / max(
                1.0, snap["flushes_size"] + snap["flushes_deadline"]
            )
            out["serving.gateway.miss_admit_us"] = statistics.median(submit_s) * 1e6
            out["serving.gateway.loaded_latency_p99_ms"] = service.stats.snapshot()[
                "latency_p99_ms"
            ]
            # Unloaded: one request at a time waits out the 2 ms deadline.
            single = [inputs.Request(int(user), 10) for user in self.probe_users[-50:]]
            _, latencies = run_unloaded(gateway.submit, _wait, self._calls(single))
            out["serving.gateway.unloaded_wait_ms"] = (
                statistics.median(latencies) * 1e3 - topk_ms_b1
            )
            # Cache hits: through the service alone, then through the gateway.
            hot = [(int(user), 10, True, (), None) for user in self.probe_users[:64]]
            run_windowed(gateway.submit, _wait, hot, WINDOW)
            base = service.stats.snapshot()
            with tracer.span("ledger.serving.service.cache_hit"):
                _, service_hit = run_unloaded(
                    lambda *call: service.submit(call[0], call[1]), _wait, hot * 8)
            with tracer.span("ledger.serving.gateway.cache_hit"):
                _, gateway_hit = run_unloaded(gateway.submit, _wait, hot * 8)
            after = service.stats.snapshot()
            hits = after["cache_hits"] - base["cache_hits"]
            misses = after["cache_misses"] - base["cache_misses"]
            out["serving.service.cache_hit_us"] = statistics.median(service_hit) * 1e6
            out["serving.gateway.hit_overhead_us"] = (
                statistics.median(gateway_hit) - statistics.median(service_hit)
            ) * 1e6
            out["serving.service.cache_hit_ratio"] = hits / max(1.0, hits + misses)
        finally:
            gateway.close()

        # The program's own tracer attached: what observability costs.
        obs = Tracer()
        service = RecommenderService(
            index, cache_capacity=1024, max_batch_size=64, ann=ann, tracer=obs
        )
        gateway = ServingGateway(service, GatewayConfig(max_wait_ms=MAX_WAIT_MS), tracer=obs)
        try:
            with tracer.span("ledger.obs.tracer_on_burst"):
                traced, _ = self._burst(gateway, n)
        finally:
            gateway.close()
        out["obs.tracer_on_throughput_ratio"] = plain / traced
        return out
