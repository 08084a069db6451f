"""CI gate for fault tolerance: chaos load, crash recovery, durable archives.

Four drills against a trained artifact directory, each deterministic
(seeded :class:`repro.faults.FaultPlan`), each exiting non-zero on
violation:

1. **Archive durability** — a corrupted archive must fail loudly with
   :class:`~repro.train.persistence.ArchiveCorrupted` (never load as
   silently wrong numbers), and stale ``*.tmp-*`` staging leftovers from a
   writer that died mid-publish must be swept on startup.
2. **Worker crash recovery** — a process-pool map with an injected worker
   crash must still return the exact serial result (the pool respawns the
   worker and retries the lost chunk), and an unrecoverable crash storm
   must fail loudly with :class:`~repro.runtime.pool.WorkerCrashed`
   instead of hanging.
3. **ANN failure degradation** — a service whose ANN index throws on every
   search must answer bit-identically to exact full-catalog retrieval
   (the first rung of the degradation ladder loses availability headroom,
   not correctness).
4. **Chaos closed loop** — a seeded fault plan (scorer errors + stalls,
   flusher crashes) under concurrent closed-loop load: the run must
   finish (no deadlock), p99 must stay bounded, and the books must
   balance *as scraped from the live /metrics endpoint*:
   ``gateway_requests_total == serving_outcomes_total{ok}+{degraded}+{failed}``
   with the runner's client-side tallies in exact agreement.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py <artifacts_dir>
"""

from __future__ import annotations

import os
import sys
import time
import urllib.request

import numpy as np

from repro.experiments import Experiment
from repro.faults import (
    FLUSHER_CRASH,
    POOL_WORKER_CRASH,
    SCORER_DELAY,
    SCORER_ERROR,
    FaultPlan,
    FaultSpec,
    corrupt_archive,
)
from repro.loadgen import WorkloadConfig, build_workload, run_chaos
from repro.obs import parse_prometheus
from repro.obs.server import MetricsServer
from repro.runtime import WorkerPool
from repro.runtime.pool import WorkerCrashed
from repro.serving import GatewayConfig, ResilienceConfig, ServingGateway
from repro.train.persistence import (
    ArchiveCorrupted,
    clean_stale_archives,
    read_archive_arrays,
    write_archive,
)

#: generous ceiling for the chaos run's serving-side p99 — the gate is
#: "bounded, not hung", not a latency SLO (CI machines are noisy)
P99_CEILING_MS = 2_000.0


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def fetch(url: str, timeout: float = 10.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read()


# ----------------------------------------------------------------------
# Drill 1: archive durability
# ----------------------------------------------------------------------
def drill_archive_durability(artifacts: str) -> None:
    scratch = os.path.join(artifacts, "chaos-archive")
    os.makedirs(scratch, exist_ok=True)
    path = os.path.join(scratch, "payload.npz")
    rng = np.random.default_rng(0)
    arrays = {"weights": rng.normal(size=(64, 16)), "ids": np.arange(64)}
    write_archive(path, arrays, metadata={"purpose": "chaos drill"})

    clean = read_archive_arrays(path)
    np.testing.assert_array_equal(clean["weights"], arrays["weights"])

    victim = corrupt_archive(path, seed=1)
    try:
        read_archive_arrays(path)
        check(False, "corrupted archive loaded without ArchiveCorrupted")
    except ArchiveCorrupted as error:
        check(victim in str(error), f"corruption error does not name {victim!r}: {error}")

    # A writer that dies mid-publish leaves only staging files behind;
    # startup must sweep them and the published archive must be untouched.
    write_archive(path, arrays, metadata={"purpose": "chaos drill"})
    stale = os.path.join(scratch, "payload.npz.tmp-99999.npz")
    with open(stale, "wb") as handle:
        handle.write(b"half-written garbage")
    removed = clean_stale_archives(scratch)
    check(
        any(entry.endswith("payload.npz.tmp-99999.npz") for entry in removed),
        f"stale staging file not swept (removed: {removed})",
    )
    check(not os.path.exists(stale), "stale staging file still on disk after sweep")
    reread = read_archive_arrays(path)
    np.testing.assert_array_equal(reread["weights"], arrays["weights"])
    print("PASS: archive durability (checksum detection + staging sweep)")


# ----------------------------------------------------------------------
# Drill 2: worker crash recovery
# ----------------------------------------------------------------------
def _square_sum(chunk: np.ndarray) -> float:
    return float(np.sum(chunk.astype(np.float64) ** 2))


def drill_worker_crash_recovery() -> None:
    chunks = [np.arange(i, i + 8) for i in range(0, 64, 8)]
    expected = [_square_sum(chunk) for chunk in chunks]

    plan = FaultPlan([FaultSpec(POOL_WORKER_CRASH, times=(2,))])
    pool = WorkerPool(workers=2, mode="process", fault_plan=plan)
    with pool:
        got = pool.map(_square_sum, chunks)
    check(got == expected, f"recovered map differs from serial: {got} != {expected}")
    check(pool.worker_deaths >= 1, "injected crash never registered a worker death")
    check(pool.chunk_retries >= 1, "lost chunk was never retried")

    # Every dispatch crashes the worker: retries must exhaust into a loud
    # typed failure, not a hang.
    storm = FaultPlan([FaultSpec(POOL_WORKER_CRASH, probability=1.0)])
    pool = WorkerPool(workers=2, mode="process", fault_plan=storm, max_chunk_retries=1)
    try:
        with pool:
            pool.map(_square_sum, chunks[:2])
        check(False, "crash storm completed instead of raising WorkerCrashed")
    except WorkerCrashed:
        pass
    print("PASS: worker crash recovery (retry + bounded give-up)")


# ----------------------------------------------------------------------
# Drill 3: ANN failure falls back to exact search, bit-identically
# ----------------------------------------------------------------------
class _DeadANN:
    """An ANN index whose every search fails (transiently)."""

    kind = "dead"

    def __init__(self, n_items: int) -> None:
        self.n_items = n_items

    def search(self, *args, **kwargs):
        raise RuntimeError("ann shard offline")

    def memory_report(self) -> dict:
        return {"kind": self.kind, "tiers": {"hot": 0, "cold": 0}}


def drill_ann_fallback_parity(experiment: Experiment) -> None:
    exact = experiment.service(default_k=10)
    flaky = experiment.service(
        default_k=10,
        ann=_DeadANN(experiment.index.n_items),
        resilience=ResilienceConfig(),
    )
    users = list(range(min(16, experiment.index.n_users)))
    for user in users:
        a, b = flaky.recommend(user), exact.recommend(user)
        np.testing.assert_array_equal(
            a.items, b.items,
            err_msg=f"ANN-fallback items differ from exact for user {user}",
        )
        np.testing.assert_array_equal(
            a.scores, b.scores,
            err_msg=f"ANN-fallback scores differ from exact for user {user}",
        )
    check(
        flaky.stats.fallback_count("ann_exact") >= len(users),
        "ann_exact fallbacks were not counted",
    )
    print(f"PASS: ANN failure → exact fallback, bit-identical over {len(users)} users")


# ----------------------------------------------------------------------
# Drill 4: chaos closed loop with live-scrape accounting
# ----------------------------------------------------------------------
def drill_chaos_load(experiment: Experiment) -> None:
    # Hand-placed occurrences rather than chaos_plan()'s spacing: the
    # back-to-back pair (3, 4) burns the first attempt AND its retry, so
    # the run deterministically exercises the degradation rung; the lone
    # fire at 20 is recovered by a retry.
    plan = FaultPlan(
        [
            FaultSpec(SCORER_ERROR, times=(3, 4, 20)),
            FaultSpec(SCORER_DELAY, times=(10,), delay_s=0.01),
            FaultSpec(FLUSHER_CRASH, times=(2, 30)),
        ],
        seed=7,
    )
    service = experiment.service(
        default_k=10,
        resilience=ResilienceConfig(retries=1, backoff_s=0.001),
        fault_plan=plan,
        cache_capacity=64,
    )
    gateway = ServingGateway(
        service,
        GatewayConfig(max_wait_ms=2.0, max_queue_depth=256),
        fault_plan=plan,
    )
    server = MetricsServer(
        service.registry, port=0,
        stats_fn=service.stats.extended_snapshot,
        update_fn=gateway.sync_gauges,
    ).start()
    try:
        workload = build_workload(
            WorkloadConfig(n_requests=400, n_users=experiment.index.n_users),
            seed=11,
        )
        began = time.monotonic()
        report = run_chaos(gateway, workload, plan=plan, threads=8,
                           result_timeout_s=60.0)
        elapsed = time.monotonic() - began
        check(report.ok, f"chaos accounting audit failed: {report.violations}")
        load = report.load
        check(load.n_timeout == 0, f"{load.n_timeout} requests never resolved")
        check(
            load.p99_ms < P99_CEILING_MS,
            f"chaos p99 {load.p99_ms:.1f} ms breaches the {P99_CEILING_MS:.0f} ms ceiling",
        )
        check(plan.total_fires() >= 5, f"fault plan only fired {plan.total_fires()} times")
        check(load.n_degraded >= 1, "back-to-back scorer failures never degraded")
        check(load.serving["requests"] > 0, "serving stats recorded nothing")

        # The same books, read back through the public scrape path.
        samples = parse_prometheus(fetch(f"{server.url('/metrics')}").decode())
        admitted = sum(
            value for (name, _), value in samples.items()
            if name == "gateway_requests_total"
        )
        outcomes = {
            dict(labels)["outcome"]: value
            for (name, labels), value in samples.items()
            if name == "serving_outcomes_total"
        }
        shed = sum(
            value for (name, _), value in samples.items()
            if name == "gateway_shed_total"
        )
        retries = samples.get(("gateway_retries_total", ()), 0)
        fallbacks = sum(
            value for (name, _), value in samples.items()
            if name == "gateway_fallbacks_total"
        )
        resolved = outcomes["ok"] + outcomes["degraded"] + outcomes["failed"]
        check(
            admitted == resolved,
            f"/metrics books do not balance: admitted={admitted} outcomes={outcomes}",
        )
        check(
            admitted + shed == load.n_requests,
            f"admitted({admitted}) + shed({shed}) != offered({load.n_requests})",
        )
        check(
            outcomes["ok"] == load.n_ok
            and outcomes["degraded"] == load.n_degraded
            and outcomes["failed"] == load.failed_total,
            f"scraped outcomes {outcomes} disagree with runner tallies "
            f"ok={load.n_ok} degraded={load.n_degraded} failed={load.failed_total}",
        )
        check(
            retries == report.accounting["retries"],
            f"scraped retries {retries} disagree with the audit "
            f"({report.accounting['retries']})",
        )
        check(
            fallbacks >= outcomes["degraded"],
            f"{outcomes['degraded']} degraded outcomes but {fallbacks} fallback stages",
        )
        restarts = samples.get(("gateway_flusher_restarts_total", ()), 0)
        check(restarts >= 1, "injected flusher crashes never restarted the flusher")
        print(
            f"PASS: chaos load — {load.n_requests} requests in {elapsed:.1f}s, "
            f"{outcomes['ok']:.0f} ok / {outcomes['degraded']:.0f} degraded / "
            f"{outcomes['failed']:.0f} failed, {retries:.0f} retries, "
            f"{restarts:.0f} flusher restarts, p99 {load.p99_ms:.2f} ms; "
            "/metrics books balance"
        )
    finally:
        server.stop()
        gateway.close()


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    artifacts = sys.argv[1]
    try:
        experiment = Experiment.load(artifacts)
        drill_archive_durability(artifacts)
        drill_worker_crash_recovery()
        drill_ann_fallback_parity(experiment)
        drill_chaos_load(experiment)
    except AssertionError as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("PASS: all chaos drills")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
