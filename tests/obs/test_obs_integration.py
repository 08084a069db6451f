"""End-to-end observability: service + live endpoint + complete traces.

The contract the CI obs-smoke arm enforces, pinned here as a test: a
traced, registry-backed :class:`RecommenderService` serves requests whose
metrics scrape as strictly parseable Prometheus exposition over HTTP and
whose spans form one complete tree per request — admission → cache lookup
→ flush → batch → engine/topk — with the batch runtime's worker-thread
spans landing in the same Chrome trace.
"""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.obs import MetricsServer, Tracer, parse_prometheus
from repro.runtime import BatchRuntime, RuntimeConfig
from repro.serving import RecommenderService, export_index


@pytest.fixture(scope="module")
def index():
    config = SyntheticConfig(
        n_users=40, n_items=120, n_categories=4, n_price_levels=4,
        interactions_per_user=6, seed=11,
    )
    dataset = generate(config)[0]
    model = pup_full(dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(5))
    model.eval()
    return export_index(model, dataset)


def _fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read()


class TestServiceEndpoint:
    def test_scrape_is_parseable_and_has_core_series(self, index):
        tracer = Tracer(process_name="test-serve")
        service = RecommenderService(index, default_k=5, tracer=tracer)
        with MetricsServer(
            service.registry,
            stats_fn=service.stats.extended_snapshot,
            update_fn=service._sync_gauges,
        ) as server:
            service.recommend_many([0, 1, 2, index.n_users + 99])
            samples = parse_prometheus(_fetch(server.url("/metrics")).decode())
            names = {name for name, _ in samples}
            assert samples[("serving_requests_total", (("route", "warm"),))] == 3
            assert samples[("serving_requests_total", (("route", "cold"),))] == 1
            assert ("serving_request_latency_seconds_count", ()) in samples
            assert ("serving_queue_depth", ()) in samples
            assert any(n.startswith("serving_queue_wait_seconds") for n in names)

            stats = json.loads(_fetch(server.url("/stats")))
            assert stats["requests"] == 4
            assert "queue_wait_p99_ms" in stats

            health = json.loads(_fetch(server.url("/healthz")))
            assert health == {"status": "ok"}

    def test_update_fn_refreshes_gauges_per_scrape(self, index):
        service = RecommenderService(index, default_k=5, max_batch_size=64)
        with MetricsServer(
            service.registry, update_fn=service._sync_gauges
        ) as server:
            service.submit(0)
            service.submit(1)
            samples = parse_prometheus(_fetch(server.url("/metrics")).decode())
            assert samples[("serving_queue_depth", ())] == 2
            service.flush()
            samples = parse_prometheus(_fetch(server.url("/metrics")).decode())
            assert samples[("serving_queue_depth", ())] == 0
            assert samples[("serving_cache_entries", ())] == 2


class TestRequestSpanTree:
    def test_every_request_has_a_complete_span_tree(self, index):
        tracer = Tracer(process_name="test-serve")
        service = RecommenderService(index, default_k=5, tracer=tracer)
        service.recommend_many([0, 1, 2])
        service.recommend(0)  # second hit: served from cache

        trace = tracer.to_chrome_trace()
        complete = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        by_id = {e["args"]["span_id"]: e for e in complete}
        requests = [e for e in complete if e["name"] == "request"]
        assert len(requests) == 4
        request_ids = {e["args"]["span_id"] for e in requests}

        lookups = [e for e in complete if e["name"] == "cache.lookup"]
        assert len(lookups) == 4
        assert all(e["args"]["parent_id"] in request_ids for e in lookups)
        # the cached answer is marked on both the lookup and the request
        assert sum(bool(e["args"]["hit"]) for e in lookups) == 1
        assert sum(bool(e["args"].get("cached")) for e in requests) == 1

        # flush → batch.warm → engine.topk chain is recorded and linked
        names = {e["name"] for e in complete}
        assert {"flush", "batch.warm", "engine.topk"} <= names
        topk = next(e for e in complete if e["name"] == "engine.topk")
        batch = by_id[topk["args"]["parent_id"]]
        assert batch["name"] == "batch.warm"
        assert by_id[batch["args"]["parent_id"]]["name"] == "flush"
        # no dangling parent ids anywhere in the tree
        assert all(
            e["args"]["parent_id"] is None or e["args"]["parent_id"] in by_id
            for e in complete
        )

    def test_cache_disabled_drops_lookup_stage(self, index):
        tracer = Tracer()
        service = RecommenderService(index, default_k=5, cache_capacity=0, tracer=tracer)
        service.recommend_many([0, 1])
        names = [r["name"] for r in tracer.records()]
        assert "cache.lookup" not in names
        assert names.count("request") == 2


class TestThreadedTrace:
    def test_worker_spans_land_in_the_chrome_trace(self, index):
        tracer = Tracer(process_name="parent")
        config = RuntimeConfig(workers=2, user_chunk=16)
        with BatchRuntime(index, config) as runtime:
            runtime.rank(np.arange(32), k=5, tracer=tracer)
        trace = tracer.to_chrome_trace()
        complete = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        # one process track, named once
        metas = [e for e in trace["traceEvents"] if e.get("ph") == "M"]
        assert [m["pid"] for m in metas] == [complete[0]["pid"]]
        assert {e["pid"] for e in complete} == {complete[0]["pid"]}
        assert metas[0]["args"]["name"] == "parent"
        chunk_spans = [e for e in complete if e["name"] == "chunk.rank"]
        assert len(chunk_spans) == 2
        # chunks ran on worker-thread tracks, not the caller's
        assert all(e["tid"] != threading.get_ident() for e in chunk_spans)
        rank_id = next(e for e in complete if e["name"] == "runtime.rank")["args"]["span_id"]
        assert all(e["args"]["parent_id"] == rank_id for e in chunk_spans)
