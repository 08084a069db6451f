"""Service load benchmark: the gateway under million-user-shaped traffic.

For each workload scale this builds a frozen PUP index and drives the same
deterministic zipfian workload (hot-user skew, 5% cold users, mixed k)
through three arms:

* **sync** — the synchronous ``submit``/``flush`` micro-batch path, chunks
  of 64, single thread: the in-run baseline every gated number is
  normalized against;
* **gateway closed-loop** — 8 threads through the
  :class:`~repro.serving.gateway.ServingGateway` (bounded admission queue,
  dual-trigger batching at 2 ms), each thread waiting for its answer
  before asking again: sustainable concurrent throughput and end-to-end
  p50/p99 from :class:`~repro.serving.stats.ServingStats`;
* **gateway burst** — an open-loop on/off arrival schedule offered far
  above capacity into a deliberately small queue: the run must hold the
  queue-depth bound and account for every shed request in
  ``gateway_shed_total`` (correctness gates, not speed gates).

A parity pass also re-answers a workload prefix synchronously and demands
bit-identical ids and scores — concurrency must never change results.

Besides the report (``benchmarks/results/bench_service_load.txt``) the
full run writes the repo-root ``BENCH_service_load.json``.  CI re-measures
the smallest scale with ``--smoke`` and fails when the gateway's
throughput ratio or p99 ratio (both normalized by the in-run sync
baseline, so absolute runner speed cancels out) regresses more than 30%
against the committed values — or when any correctness gate (parity,
depth bound, shed accounting) breaks at all.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_load.py          # full run,
                                                                    # rewrites BENCH_service_load.json
    PYTHONPATH=src python benchmarks/bench_service_load.py --smoke  # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

import numpy as np

from _harness import write_report
from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.loadgen import (
    ArrivalSchedule,
    WorkloadConfig,
    build_workload,
    run_closed_loop,
    run_open_loop,
)
from repro.serving import (
    GatewayConfig,
    RecommenderService,
    ServingGateway,
    export_index,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_service_load.json")

K = 10
SYNC_BATCH = 64
THREADS = 8
MAX_WAIT_MS = 2.0
QUEUE_DEPTH = 256
BURST_QUEUE_DEPTH = 32
ZIPF_S = 1.1
COLD_FRACTION = 0.05
SCALES = (
    # (n_users, n_items, n_requests)
    (800, 4_000, 1_200),
    (2_000, 10_000, 1_200),
)
PARITY_REQUESTS = 200

#: CI gate: fail when a gated ratio regresses more than this vs committed
REGRESSION_TOLERANCE = 0.30


def build_index(n_users: int, n_items: int):
    dataset, _ = generate(
        SyntheticConfig(
            n_users=n_users, n_items=n_items, n_categories=8, n_price_levels=5,
            interactions_per_user=8, seed=1,
        )
    )
    model = pup_full(dataset, global_dim=56, category_dim=8, rng=np.random.default_rng(0))
    model.eval()
    return export_index(model, dataset)


def make_workload(n_users: int, n_requests: int):
    config = WorkloadConfig(
        n_requests=n_requests, n_users=n_users, zipf_s=ZIPF_S,
        cold_fraction=COLD_FRACTION, k_mix=((K, 0.8), (50, 0.2)),
    )
    return build_workload(config, seed=7)


def make_service(index, max_batch_size: int = SYNC_BATCH) -> RecommenderService:
    return RecommenderService(
        index, default_k=K, cache_capacity=0, max_batch_size=max_batch_size
    )


def run_sync_arm(index, workload) -> Dict[str, float]:
    """In-run baseline: the pre-gateway micro-batch path, one thread."""
    service = make_service(index)
    began = time.perf_counter()
    for start in range(0, len(workload), SYNC_BATCH):
        chunk = workload[start : start + SYNC_BATCH]
        pendings = [
            service.submit(r.user, k=r.k, price_profile=r.price_profile) for r in chunk
        ]
        service.flush()
        for pending in pendings:
            pending.result(timeout=60.0)
    duration = time.perf_counter() - began
    snapshot = service.stats.snapshot()
    return {
        "qps": len(workload) / duration,
        "p50_ms": snapshot["latency_p50_ms"],
        "p99_ms": snapshot["latency_p99_ms"],
    }


def run_parity_check(index, n_requests: int = PARITY_REQUESTS) -> bool:
    """Gateway answers must be bit-identical to sync ``recommend_many``."""
    config = WorkloadConfig(
        n_requests=n_requests, n_users=index.n_users, zipf_s=ZIPF_S,
        cold_fraction=COLD_FRACTION, k_mix=((K, 1.0),),
    )
    workload = build_workload(config, seed=21)
    users = [r.user for r in workload]
    expected = make_service(index).recommend_many(users, k=K)

    service = make_service(index)
    answers: Dict[int, object] = {}
    import threading

    lock = threading.Lock()
    with ServingGateway(
        service, GatewayConfig(max_queue_depth=QUEUE_DEPTH, max_wait_ms=MAX_WAIT_MS)
    ) as gateway:
        def worker(shard: List) -> None:
            for i, request in shard:
                rec = gateway.submit(request.user, k=request.k).result(timeout=60.0)
                with lock:
                    answers[i] = rec

        shards = [list(enumerate(workload))[t::4] for t in range(4)]
        pool = [threading.Thread(target=worker, args=(s,)) for s in shards]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    return all(
        np.array_equal(answers[i].items, expected[i].items)
        and np.array_equal(answers[i].scores, expected[i].scores)
        for i in range(len(workload))
    )


def bench_scale(n_users: int, n_items: int, n_requests: int, lines: List[str]) -> Dict:
    index = build_index(n_users, n_items)
    workload = make_workload(n_users, n_requests)

    sync = run_sync_arm(index, workload)

    gateway_config = GatewayConfig(max_queue_depth=QUEUE_DEPTH, max_wait_ms=MAX_WAIT_MS)
    with ServingGateway(make_service(index), gateway_config) as gateway:
        closed = run_closed_loop(gateway, workload, threads=THREADS, result_timeout_s=60.0)

    burst_config = GatewayConfig(max_queue_depth=BURST_QUEUE_DEPTH, max_wait_ms=10.0)
    with ServingGateway(make_service(index, max_batch_size=10_000), burst_config) as burst_gateway:
        schedule = ArrivalSchedule(mode="onoff", rate=100_000.0, on_s=0.05, off_s=0.02)
        burst = run_open_loop(burst_gateway, workload, schedule, result_timeout_s=60.0)
        shed_accounted = burst.n_shed.get("queue_full", 0) == burst_gateway.shed_count(
            "queue_full"
        )

    parity = run_parity_check(index)

    qps_ratio = closed.qps / sync["qps"]
    p99_ratio = closed.p99_ms / sync["p99_ms"]
    depth_bounded = burst.max_queue_depth <= BURST_QUEUE_DEPTH

    lines.append(
        f"catalog {n_items:>6d} items / {n_users:>5d} users   "
        f"({n_requests} requests, zipf s={ZIPF_S}, {COLD_FRACTION:.0%} cold)"
    )
    lines.append(
        f"  sync batch{SYNC_BATCH:<3d}   p50 {sync['p50_ms']:8.3f} ms   "
        f"p99 {sync['p99_ms']:8.3f} ms   {sync['qps']:9.0f} QPS   (in-run baseline)"
    )
    lines.append(
        f"  gateway x{THREADS}     p50 {closed.p50_ms:8.3f} ms   "
        f"p99 {closed.p99_ms:8.3f} ms   {closed.qps:9.0f} QPS   "
        f"(ratios: qps {qps_ratio:.2f}, p99 {p99_ratio:.2f})"
    )
    lines.append(
        f"  gateway burst   offered {burst.offered_qps:8.0f} QPS   "
        f"served {burst.qps:8.0f} QPS   shed {burst.shed_total:4d}   "
        f"max depth {burst.max_queue_depth}/{BURST_QUEUE_DEPTH} "
        f"{'(bounded)' if depth_bounded else '(VIOLATED)'}"
    )
    lines.append(f"  parity: {'bit-identical to sync path' if parity else 'MISMATCH'}")
    lines.append("")
    return {
        "n_users": n_users,
        "n_items": n_items,
        "n_requests": n_requests,
        "sync_qps": sync["qps"],
        "sync_p50_ms": sync["p50_ms"],
        "sync_p99_ms": sync["p99_ms"],
        "gateway_qps": closed.qps,
        "gateway_p50_ms": closed.p50_ms,
        "gateway_p99_ms": closed.p99_ms,
        "qps_ratio": qps_ratio,
        "p99_ratio": p99_ratio,
        "burst_offered_qps": burst.offered_qps,
        "burst_qps": burst.qps,
        "burst_shed": burst.shed_total,
        "burst_max_depth": burst.max_queue_depth,
        "burst_depth_bound": BURST_QUEUE_DEPTH,
        "burst_depth_bounded": depth_bounded,
        "burst_shed_accounted": shed_accounted,
        "parity": parity,
    }


def check_correctness_gates(result: Dict) -> List[str]:
    """The gates that must hold at any speed (smoke fails hard on these)."""
    problems = []
    if not result["parity"]:
        problems.append("gateway results are not bit-identical to the sync path")
    if not result["burst_depth_bounded"]:
        problems.append(
            f"burst queue depth {result['burst_max_depth']} exceeded the bound "
            f"{result['burst_depth_bound']}"
        )
    if not result["burst_shed_accounted"]:
        problems.append("runner shed ledger disagrees with gateway_shed_total")
    if result["burst_shed"] == 0:
        problems.append("overload burst shed nothing (backpressure never engaged)")
    return problems


def cmd_full() -> int:
    lines = [
        "Service load benchmark: concurrent gateway vs the sync micro-batch path",
        f"zipf s={ZIPF_S} + {COLD_FRACTION:.0%} cold, k mix 80/20 {K}/50, "
        f"{THREADS} closed-loop threads, max wait {MAX_WAIT_MS:g} ms",
        "",
    ]
    scales = []
    for n_users, n_items, n_requests in SCALES:
        result = bench_scale(n_users, n_items, n_requests, lines)
        problems = check_correctness_gates(result)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1
        scales.append(result)
    write_report("bench_service_load", "\n".join(lines))

    smallest = scales[0]
    payload = {
        "benchmark": "service_load",
        "protocol": {
            "k_mix": f"80% k={K}, 20% k=50",
            "zipf_s": ZIPF_S,
            "cold_fraction": COLD_FRACTION,
            "threads": THREADS,
            "max_wait_ms": MAX_WAIT_MS,
            "queue_depth": QUEUE_DEPTH,
            "burst_queue_depth": BURST_QUEUE_DEPTH,
            "sync_batch": SYNC_BATCH,
            "baseline": "single-thread sync micro-batch path, measured in-run",
        },
        "scales": scales,
        "smoke_reference": {
            "scale": {key: smallest[key] for key in ("n_users", "n_items", "n_requests")},
            "qps_ratio": smallest["qps_ratio"],
            "p99_ratio": smallest["p99_ratio"],
        },
    }
    with open(BENCH_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {BENCH_PATH}")
    return 0


def cmd_smoke() -> int:
    """CI check: re-measure the smallest scale, compare to the committed file.

    Both gated numbers are ratios of two in-run measurements (gateway vs
    sync baseline on the same machine, same workload), so absolute runner
    speed cancels out.  Throughput fails below ``(1 - 30%)`` of the
    committed ratio; p99 fails above ``committed / (1 - 30%)``.  The
    correctness gates (parity, bounded depth, shed accounting) fail hard
    regardless of speed.
    """
    if not os.path.exists(BENCH_PATH):
        print(
            f"missing committed baseline {BENCH_PATH}; run without --smoke first",
            file=sys.stderr,
        )
        return 2
    with open(BENCH_PATH) as handle:
        committed = json.load(handle)
    reference = committed["smoke_reference"]
    scale = reference["scale"]

    lines: List[str] = []
    result = bench_scale(
        scale["n_users"], scale["n_items"], scale["n_requests"], lines
    )
    print("\n".join(lines))

    problems = check_correctness_gates(result)
    qps_floor = (1.0 - REGRESSION_TOLERANCE) * reference["qps_ratio"]
    p99_ceiling = reference["p99_ratio"] / (1.0 - REGRESSION_TOLERANCE)
    print(
        f"gateway/sync qps ratio {result['qps_ratio']:.2f} "
        f"(committed {reference['qps_ratio']:.2f}; floor {qps_floor:.2f})"
    )
    print(
        f"gateway/sync p99 ratio {result['p99_ratio']:.2f} "
        f"(committed {reference['p99_ratio']:.2f}; ceiling {p99_ceiling:.2f})"
    )
    if result["qps_ratio"] < qps_floor:
        problems.append(
            f"gateway QPS ratio regressed more than {REGRESSION_TOLERANCE:.0%} "
            "against the committed BENCH_service_load.json"
        )
    if result["p99_ratio"] > p99_ceiling:
        problems.append(
            f"gateway p99 ratio regressed more than {REGRESSION_TOLERANCE:.0%} "
            "against the committed BENCH_service_load.json"
        )
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick regression check against the committed BENCH_service_load.json",
    )
    args = parser.parse_args()
    return cmd_smoke() if args.smoke else cmd_full()


if __name__ == "__main__":
    raise SystemExit(main())
