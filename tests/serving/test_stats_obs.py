"""Registry-backed ServingStats: snapshot stability, queue wait, parity.

Pins the three satellite fixes: (1) ``record_batch`` accounts queue wait so
p50/p99 are end-to-end; (2) ``LatencyRecorder`` caching is bit-identical to
the historical rebuild-every-call path; (3) the snapshot keys the CLI and
dashboards read are byte-for-byte unchanged.
"""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, parse_prometheus
from repro.serving.stats import LatencyRecorder, ServingStats

SNAPSHOT_KEYS = [
    "requests",
    "warm_requests",
    "cold_requests",
    "cache_hits",
    "cache_misses",
    "cache_hit_rate",
    "batches",
    "items_scored",
    "qps",
    "latency_p50_ms",
    "latency_p99_ms",
    "latency_mean_ms",
    "elapsed_s",
    "ann_index_bytes_hot",
    "ann_index_bytes_cold",
    "ann_index_bytes_total",
]


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def advance(self, dt):
        self.t += dt

    def __call__(self):
        return self.t


class TestLatencyRecorderParity:
    """The cache must be invisible: identical results to the uncached path."""

    def _reference(self, samples, q):
        # the pre-cache implementation, verbatim
        return float(np.percentile(np.fromiter(samples, dtype=np.float64), q))

    def test_percentile_bit_parity_with_uncached_path(self):
        rng = np.random.default_rng(7)
        recorder = LatencyRecorder(window=512)
        samples = []
        for value in rng.lognormal(-6, 1, size=1500):
            recorder.record(value)
            samples.append(float(value))
            samples = samples[-512:]
        for q in (0, 25, 50, 90, 99, 100):
            assert recorder.percentile(q) == self._reference(samples, q)
            # second read hits the cache — must not drift
            assert recorder.percentile(q) == self._reference(samples, q)

    def test_mean_bit_parity_with_uncached_path(self):
        rng = np.random.default_rng(8)
        recorder = LatencyRecorder(window=256)
        samples = []
        for value in rng.lognormal(-6, 1, size=700):
            recorder.record(value)
            samples.append(float(value))
            samples = samples[-256:]
        expected = float(np.mean(np.fromiter(samples, dtype=np.float64)))
        assert recorder.mean() == expected
        assert recorder.mean() == expected

    def test_cache_invalidated_by_record(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        assert recorder.percentile(50) == 1.0
        recorder.record(3.0)
        assert recorder.percentile(50) == 2.0
        assert recorder.mean() == 2.0

    def test_cached_scrape_is_cheap(self):
        recorder = LatencyRecorder()
        recorder.record(0.5)
        recorder.percentile(50)
        assert recorder._array is not None  # built once...
        array = recorder._array
        recorder.percentile(50)
        assert recorder._array is array  # ...and reused, not rebuilt


class TestServingStats:
    def test_snapshot_keys_unchanged(self):
        stats = ServingStats(clock=FakeClock())
        assert list(stats.snapshot()) == SNAPSHOT_KEYS

    def test_record_batch_includes_queue_wait_in_latency(self):
        stats = ServingStats(clock=FakeClock())
        # 10ms compute, one request waited 90ms, one 0ms
        stats.record_batch(
            n_requests=2, n_items_scored=100, seconds=0.010, queue_waits=[0.090, 0.0]
        )
        snap = stats.snapshot()
        # end-to-end latencies are {100ms, 10ms}: p99 must see the waiter
        assert snap["latency_p99_ms"] == pytest.approx(100.0, rel=0.02)
        assert snap["latency_mean_ms"] == pytest.approx(55.0, rel=0.02)

    def test_queue_wait_histogram_keeps_compute_only_view(self):
        stats = ServingStats(clock=FakeClock())
        stats.record_batch(
            n_requests=2, n_items_scored=100, seconds=0.010, queue_waits=[0.090, 0.0]
        )
        extended = stats.extended_snapshot()
        assert extended["queue_wait_p99_ms"] == pytest.approx(90.0, rel=0.02)
        assert extended["batch_duration_mean_ms"] == pytest.approx(10.0, rel=0.02)
        # the plain snapshot is a strict prefix of the extended one
        assert set(SNAPSHOT_KEYS) < set(extended)

    def test_no_queue_waits_matches_historical_behavior(self):
        stats = ServingStats(clock=FakeClock())
        stats.record_batch(
            n_requests=3, n_items_scored=30, seconds=0.004, queue_waits=[0.0] * 3
        )
        snap = stats.snapshot()
        assert snap["latency_p50_ms"] == pytest.approx(4.0)
        assert snap["requests"] == 0.0  # record_request is separate, as before

    def test_queue_waits_length_mismatch_rejected(self):
        stats = ServingStats(clock=FakeClock())
        with pytest.raises(ValueError, match="queue_waits"):
            stats.record_batch(n_requests=2, n_items_scored=1, seconds=0.1, queue_waits=[0.1])

    def test_counts_surface_in_shared_registry(self):
        registry = MetricsRegistry()
        stats = ServingStats(clock=FakeClock(), registry=registry)
        stats.record_request(warm=True)
        stats.record_request(warm=False)
        stats.record_cache(hit=True)
        stats.record_batch(n_requests=1, n_items_scored=50, seconds=0.002, queue_waits=[0.0])
        samples = parse_prometheus(registry.to_prometheus())
        assert samples[("serving_requests_total", (("route", "warm"),))] == 1
        assert samples[("serving_requests_total", (("route", "cold"),))] == 1
        assert samples[("serving_cache_lookups_total", (("result", "hit"),))] == 1
        assert samples[("serving_batches_total", ())] == 1
        assert samples[("serving_items_scored_total", ())] == 50
        assert samples[("serving_request_latency_seconds_count", ())] == 1

    def test_attribute_api_preserved(self):
        stats = ServingStats(clock=FakeClock())
        stats.record_request(warm=True)
        stats.record_request(warm=True)
        stats.record_request(warm=False)
        stats.record_cache(hit=False)
        assert stats.requests == 3
        assert stats.warm_requests == 2
        assert stats.cold_requests == 1
        assert stats.cache_misses == 1
        assert stats.cache_hits == 0
