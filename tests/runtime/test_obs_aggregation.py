"""Threaded observability: chunk spans and timings land with the caller.

The contract: a traced ``BatchRuntime.rank`` produces one ``runtime.rank``
span plus one ``chunk.rank`` span per dispatched chunk, linked
parent→child — and that structure is identical (span names, counts,
linkage) whether the chunks ran serially or on worker threads, because
every chunk records straight into the caller's tracer under an explicit
parent.
"""

import threading

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.profiling import Profiler
from repro.runtime import BatchRuntime, RuntimeConfig
from repro.serving import export_index


@pytest.fixture(scope="module")
def setup():
    config = SyntheticConfig(
        n_users=50, n_items=90, n_categories=4, n_price_levels=4,
        interactions_per_user=8, seed=23,
    )
    dataset = generate(config)[0]
    model = pup_full(dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(3))
    model.eval()
    index = export_index(model, dataset)
    return dataset, model, index


def _rank_with_tracer(index, users, workers):
    tracer = Tracer(process_name="test-parent")
    config = RuntimeConfig(workers=workers, user_chunk=16)
    with BatchRuntime(index, config) as runtime:
        runtime.rank(users, k=5, tracer=tracer)
    return tracer


class TestSpanAggregation:
    def test_serial_rank_records_rank_and_chunk_spans(self, setup):
        _, _, index = setup
        users = np.arange(40)
        tracer = _rank_with_tracer(index, users, workers=0)
        records = tracer.records()
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        assert len(by_name["runtime.rank"]) == 1
        assert len(by_name["chunk.rank"]) == 3  # 40 users / 16 per chunk
        rank_id = by_name["runtime.rank"][0]["span_id"]
        for chunk in by_name["chunk.rank"]:
            assert chunk["parent_id"] == rank_id

    def test_thread_workers_record_chunk_spans_into_the_callers_tracer(self, setup):
        _, _, index = setup
        users = np.arange(48)
        tracer = _rank_with_tracer(index, users, workers=3)
        records = tracer.records()
        chunks = [r for r in records if r["name"] == "chunk.rank"]
        assert len(chunks) == 3
        rank = next(r for r in records if r["name"] == "runtime.rank")
        # linked to the call's span across threads, in the call's trace
        assert all(c["parent_id"] == rank["span_id"] for c in chunks)
        assert all(c["trace_id"] == rank["trace_id"] for c in chunks)
        # chunk spans carry a worker thread's tid, not the caller's
        assert all(c["tid"] != threading.get_ident() for c in chunks)
        assert rank["tid"] == threading.get_ident()
        # every chunk id arrived exactly once
        assert sorted(c["attrs"]["chunk_id"] for c in chunks) == [0, 1, 2]

    def test_span_structure_identical_across_modes(self, setup):
        _, _, index = setup
        users = np.arange(32)

        def shape(workers):
            records = _rank_with_tracer(index, users, workers=workers).records()
            names = sorted(r["name"] for r in records)
            rank_id = next(r for r in records if r["name"] == "runtime.rank")["span_id"]
            parents = sorted(
                r["parent_id"] == rank_id for r in records if r["name"] == "chunk.rank"
            )
            return names, parents

        serial = shape(0)
        assert shape(2) == serial
        assert shape(3) == serial

    @pytest.mark.parametrize("workers", [0, 2])
    def test_ann_spans_nest_under_their_chunk_on_its_thread(self, setup, workers):
        from repro.serving import build_ivf

        _, _, index = setup
        ivf = build_ivf(index, n_lists=4, nprobe=2, seed=0)
        tracer = Tracer()
        config = RuntimeConfig(workers=workers, user_chunk=16)
        with BatchRuntime(index, config, ann=ivf) as runtime:
            runtime.rank(np.arange(40), k=5, tracer=tracer)
        records = tracer.records()
        chunks = {r["span_id"]: r for r in records if r["name"] == "chunk.rank"}
        assert len(chunks) == 3
        coarse = [r for r in records if r["name"] == "ann.coarse"]
        assert len(coarse) == 3
        for span in coarse:
            chunk = chunks[span["parent_id"]]
            assert span["tid"] == chunk["tid"]

    def test_untraced_rank_records_nothing(self, setup):
        _, _, index = setup
        with BatchRuntime(index, RuntimeConfig(user_chunk=16)) as runtime:
            runtime.rank(np.arange(20), k=5)  # no tracer: must not raise

    def test_disabled_tracer_ships_no_spans(self, setup):
        _, _, index = setup
        tracer = Tracer(enabled=False)
        with BatchRuntime(index, RuntimeConfig(user_chunk=16)) as runtime:
            runtime.rank(np.arange(20), k=5, tracer=tracer)
        assert len(tracer) == 0


class TestMetricAggregation:
    def test_profiler_timings_merge_across_thread_workers(self, setup):
        _, _, index = setup
        registry = MetricsRegistry()
        profiler = Profiler(registry=registry)
        config = RuntimeConfig(workers=3, user_chunk=16)
        with BatchRuntime(index, config) as runtime:
            runtime.rank(np.arange(48), k=5, profiler=profiler)
        # worker-thread kernel seconds landed in the caller's registry
        assert profiler.seconds("score") > 0
        assert profiler.seconds("topk") > 0
        assert profiler.counter("chunks") == 3
        assert registry.get("profiler_phase_seconds_total").value(phase="score") > 0

