"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names; a test
keeps the two in step.
"""

from __future__ import annotations

WORKLOADS = {
    "train": "PUP fit plus validation pass: data, graph, nn, core, train, eval do the work, serving none",
    "serve_scan": "keys never repeat inside the cache window, so IVF scoring is ~95% of the work and the cache none",
    "serve_hot": "only keys cached at set-up, so admission, cache lookup, copy and future are the work and scoring none",
    "refresh": "journal, fold-in, delta build, gates, promote into a live service: writes beside reads, lifecycle and IO dominate",
}

#: what every untraced run measures, the same six on every workload: name -> (unit, better)
UNTRACED = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "cpu_us_per_op": ("us", "lower"),
    "recall_at_50": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: The share of the parent's median by which an end-to-end metric may get worse.
#: ISSUE 12's bounds are 0.10 on the four timings, 0.005 absolute on recall and
#: 0.05 on memory, with the rule that a metric which cannot agree within its
#: bound from run to run moves to the per-layer list.  On the reference box two
#: sets of ten runs spread 0.15-0.50 on every timing and 0.02 on ``train``'s
#: recall (AGREEMENT.md), so only memory holds its bound.  ``setup_s`` has to be
#: an end-to-end metric (the builder's contract), with the largest bound.
BOUNDS = {
    "setup_s": 0.25,
    "peak_rss_mb": 0.05,
}

#: name -> (unit, better, bound): the untraced values that agree within their bounds
END_TO_END = {name: UNTRACED[name] + (bound,) for name, bound in BOUNDS.items()}

#: name -> (unit, better); every traced run reports all of them
PER_LAYER = {
    # untraced values that do not hold ISSUE 12's bound from run to run (see BOUNDS)
    **{name: UNTRACED[name] for name in UNTRACED if name not in BOUNDS},
    # train
    "data.load_dataset_s": ("s", "lower"),
    "graph.adjacency_build_s": ("s", "lower"),
    "data.sample_ms_per_step": ("ms", "lower"),
    "core.forward_ms_per_step": ("ms", "lower"),
    "nn.backward_ms_per_step": ("ms", "lower"),
    "nn.optim_step_ms_per_step": ("ms", "lower"),
    "train.unattributed_ms_per_step": ("ms", "lower"),
    "eval.rank_users_per_s": ("1/s", "higher"),
    "eval.validation_pass_ms": ("ms", "lower"),
    # serving: set-up
    "serving.ann.build_s": ("s", "lower"),
    "serving.index.save_s": ("s", "lower"),
    "serving.index.load_s": ("s", "lower"),
    # serving: scoring
    "serving.ann.probe_ms_b64": ("ms", "lower"),
    "serving.ann.search_ms_b64": ("ms", "lower"),
    "serving.ann.search_ms_b1": ("ms", "lower"),
    "serving.ann.scanned_fraction": ("ratio", "lower"),
    "serving.retrieval.topk_ms_b64": ("ms", "lower"),
    "serving.retrieval.topk_ms_b1": ("ms", "lower"),
    "serving.retrieval.exact_topk_ms_b64": ("ms", "lower"),
    "serving.index.score_block_ms_b64": ("ms", "lower"),
    "serving.filters.mask_build_ms": ("ms", "lower"),
    # serving: batching and admission
    "serving.service.flush_ms_b64": ("ms", "lower"),
    "serving.service.overhead_ms_b64": ("ms", "lower"),
    "serving.gateway.batch_ms_b64": ("ms", "lower"),
    "serving.gateway.batch_size_mean": ("count", "higher"),
    "serving.gateway.flush_size_share": ("ratio", "higher"),
    "serving.gateway.miss_admit_us": ("us", "lower"),
    "serving.gateway.loaded_latency_p99_ms": ("ms", "lower"),
    "serving.gateway.unloaded_wait_ms": ("ms", "lower"),
    # serving: cache
    "serving.service.cache_hit_us": ("us", "lower"),
    "serving.gateway.hit_overhead_us": ("us", "lower"),
    "serving.service.cache_hit_ratio": ("ratio", "higher"),
    # lifecycle
    "lifecycle.journal.ingest_ms_first": ("ms", "lower"),
    "lifecycle.journal.ingest_ms_last": ("ms", "lower"),
    "lifecycle.journal.replay_ms": ("ms", "lower"),
    "lifecycle.store.load_version_ms": ("ms", "lower"),
    "lifecycle.foldin.fold_in_ms": ("ms", "lower"),
    "lifecycle.foldin.entities_solved": ("count", "higher"),
    "lifecycle.delta.delta_build_ms": ("ms", "lower"),
    "lifecycle.store.write_candidate_ms": ("ms", "lower"),
    "lifecycle.controller.unattributed_ms": ("ms", "lower"),
    "lifecycle.gates.run_gates_ms": ("ms", "lower"),
    "lifecycle.store.set_current_ms": ("ms", "lower"),
    "serving.service.swap_index_ms": ("ms", "lower"),
    "serving.service.post_swap_burst_ms": ("ms", "lower"),
    # observability and the benchmark itself
    "obs.tracer_on_throughput_ratio": ("ratio", "higher"),
    "bench.calibration_ms": ("ms", "lower"),
    "bench.driver_overhead_us": ("us", "lower"),
    "bench.trace_overhead_ratio": ("ratio", "higher"),
    "bench.attributed_share": ("ratio", "higher"),
}


def with_units(values: dict, table: dict) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the names in ``table``."""
    missing = sorted(set(table) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        name: {"value": float(values[name]), "unit": table[name][0]} for name in table
    }
