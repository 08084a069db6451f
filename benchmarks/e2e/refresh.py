"""``refresh``: absorb catalog churn into a live service, round after round.

One slice is one round: a batch of events is journaled (``ingest``), folded
into a candidate version (``build``), gated and promoted into the running
``RecommenderService`` (``promote``), and a 256-request burst is answered
by the swapped service.  It is the only workload that uses the serving
layer for writes beside reads, and the only one where ``lifecycle.*`` and
archive IO dominate.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np

from repro.eval.ann import ann_recall_at_k
from repro.lifecycle import (
    DeltaConfig,
    LifecycleController,
    delta_build,
    fold_in,
    replay,
    run_gates,
)
from repro.serving import RecommenderService
from repro.serving.ann.ivf import build_ivf
from repro.serving.retrieval import RetrievalEngine

from . import inputs

NPROBE = 20  # at the default nprobe the 64-user recall gate rejects rounds
BURST = 256
BATCH = 64
RECALL_K = 50

SIZES = {
    "full": dict(n_users=2_000, n_items=24_000, events=600, probe=256),
    "smoke": dict(n_users=400, n_items=4_000, events=150, probe=64),
}


class RefreshWorkload:
    name = "refresh"
    #: a slice is one round, about this long on the reference box in its slow state
    SLICE_SECONDS = 2.5
    #: rounds are not exchangeable — the journal and the version list grow, so each
    #: round is slower than the last and a spare round would pull the median down
    SPARE_SLICES = False

    def __init__(self, name: str, seed: int, size: str, workdir: str) -> None:
        self.seed = seed
        self.cfg = dict(SIZES[size])
        self.workdir = workdir
        self.source = inputs.clustered_index(self.cfg["n_users"], self.cfg["n_items"], seed)
        self.attempted = 0
        self.failed = 0
        self.layer: Dict[str, float] = {}
        self.ingest_ms: List[float] = []
        self.request_log: List = []
        self._setups = 0
        self._tracer = None

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Index factors in memory -> a bootstrapped store and a warm live service."""
        self._setups += 1
        root = os.path.join(self.workdir, f"refresh_setup{self._setups}")
        clock = time.perf_counter
        start = clock()
        ann = build_ivf(self.source, nprobe=NPROBE)
        self.layer["serving.ann.build_s"] = clock() - start
        self.controller = LifecycleController(root)
        self.controller.bootstrap(self.source, ann)
        store = self.controller.store
        index, ann = store.load_version(store.current())
        self.service = RecommenderService(
            index, cache_capacity=1024, max_batch_size=BATCH, ann=ann
        )
        self.seq = 0
        self.round = 0
        self.ingest_ms = []
        self._burst(self._burst_users(part=-1))

    def attach(self, tracer) -> None:
        self._tracer = tracer
        store = self.controller.store
        tracer.wrap_method(store, "load_version", "lifecycle.store.load_version")
        tracer.wrap_method(store, "write_candidate", "lifecycle.store.write_candidate")
        tracer.wrap_method(store, "set_current", "lifecycle.store.set_current")
        tracer.wrap_method(self.service, "swap_index", "serving.service.swap_index")
        tracer.wrap_method(self.service, "flush", "serving.service.flush")

    # ------------------------------------------------------------------
    def _events(self):
        index = self.service.index
        events = inputs.refresh_events(
            index.n_users, index.n_items, self.cfg["events"],
            seed=self.seed * 1000 + self.round, start_seq=self.seq,
        )
        self.seq += len(events)
        self.round += 1
        self.request_log.extend((e.kind, e.user, e.item) for e in events)
        return events

    def _burst_users(self, part: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 17, part + 2])
        return rng.integers(0, self.service.index.n_users, size=BURST)

    def _burst(self, users: np.ndarray, k: int = 10):
        """Submit the burst; returns (answers, time the first batch resolved)."""
        submit = self.service.submit
        pending = [submit(int(user), k) for user in users[:BATCH]]
        if not pending[0].done:
            self.service.flush()
        first_done = time.perf_counter()
        pending += [submit(int(user), k) for user in users[BATCH:]]
        self.service.flush()
        answers = []
        for p in pending:
            try:
                answers.append(p.result(30.0))
            except Exception as error:  # noqa: BLE001 - counted, not raised
                answers.append(error)
        return answers, first_done

    def run_slice(self, part: int, traced: bool = False) -> Dict[str, float]:
        controller = self.controller
        ingest, build, promote, burst = (
            controller.ingest, controller.build, controller.promote, self._burst
        )
        if traced:
            ingest = self._tracer.wrap(ingest, "lifecycle.controller.ingest")
            build = self._tracer.wrap(build, "lifecycle.controller.build")
            promote = self._tracer.wrap(promote, "lifecycle.controller.promote")
            burst = self._tracer.wrap(burst, "serving.service.burst")
        events = self._events()
        expected_items = self.service.index.n_items + sum(e.kind == "add_item" for e in events)
        clock = time.perf_counter

        cpu = time.process_time()
        start = clock()
        ingest(events)
        ingested = clock()
        candidate = build()
        promote_start = clock()
        promoted, _report = promote(candidate, service=self.service)
        users = self._burst_users(part)
        answers, first_done = burst(users)
        seconds = clock() - start
        cpu = time.process_time() - cpu
        self.ingest_ms.append((ingested - start) * 1e3)

        # Output checks: the round promoted, and the new version answered the burst.
        self.attempted += 1 + len(users)
        if promoted is None or self.service.index.n_items != expected_items:
            self.failed += 1
        self.failed += self._bad_answers(users, answers, 10)
        return {
            "throughput_per_s": len(events) / seconds,
            "cpu_us_per_op": cpu / len(events) * 1e6,
            "latency_p50_ms": (first_done - promote_start) * 1e3,
        }

    def _bad_answers(self, users, answers, k: int) -> int:
        index = self.service.index
        bad = 0
        for user, answer in zip(users, answers):
            if isinstance(answer, Exception) or len(answer.items) != k:
                bad += 1
            elif np.isin(answer.items, index.excluded_items(int(user))).any():
                bad += 1
            elif answer.items.max() >= index.n_items:
                bad += 1
        return bad

    def finish(self) -> float:
        """recall@50 of live answers vs the exact oracle on the final folded-in index."""
        index = self.service.index
        rng = np.random.default_rng([self.seed, 18])
        warm = np.flatnonzero(np.diff(index.exclude_indptr) > 0)
        probe = np.sort(rng.choice(warm, size=min(self.cfg["probe"], len(warm)), replace=False))
        answers, _ = self._burst(probe, k=RECALL_K)
        self.attempted += len(probe)
        self.failed += self._bad_answers(probe, answers, RECALL_K)
        served = {
            int(user): answer.items
            for user, answer in zip(probe, answers)
            if not isinstance(answer, Exception)
        }
        # The engine's full scan is the oracle (see ServeWorkload.finish).
        exact = RetrievalEngine(index).topk(probe, RECALL_K, use_ann=False)
        exact = {
            int(user): result.items for user, result in zip(probe, exact) if int(user) in served
        }
        return ann_recall_at_k(exact, served, RECALL_K) if exact else 0.0

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------
    def ledger(self, tracer) -> Dict[str, float]:
        """One round step by step through the public pieces, one through the controller.

        The first round mirrors ``LifecycleController.build`` and
        ``promote`` with the public functions they are made of, each under
        its own span; the second runs the controller itself, and what it
        spends beyond the mirrored steps is reported as unattributed.
        """
        out = dict(self.layer)
        controller, store, service = self.controller, self.controller.store, self.service
        steps: Dict[str, float] = {}

        def step(name, fn, *args, **kwargs):
            with tracer.span("ledger." + name) as span:
                result = fn(*args, **kwargs)
            steps[name] = steps.get(name, 0.0) + span.duration
            return result

        def ingest(events) -> None:
            with tracer.span("ledger.lifecycle.journal.ingest") as span:
                controller.ingest(events)
            self.ingest_ms.append(span.duration * 1e3)

        ingest(self._events())
        live = store.current()
        manifest = store.read_manifest(live)
        replayed = step(
            "lifecycle.journal.replay", replay, store.journal_dir,
            after_seq=int(manifest.get("journal_seq", -1)),
        )
        index, ann = step("lifecycle.store.load_version", store.load_version, live)
        new_index, fold = step(
            "lifecycle.foldin.fold_in", fold_in, index, replayed, controller.config.foldin
        )
        new_ann, delta = step(
            "lifecycle.delta.delta_build", delta_build, ann, new_index,
            DeltaConfig(
                staleness_threshold=controller.config.staleness_threshold,
                appended_since_recluster=int(manifest.get("appended_since_recluster", 0)),
            ),
        )
        repriced = sorted({e.item for e in replayed if e.kind == "reprice"})
        added = sorted({e.item for e in replayed if e.kind == "add_item"})
        candidate = step(
            "lifecycle.store.write_candidate", store.write_candidate, new_index, new_ann,
            {
                "parent": live,
                "journal_seq": fold.last_seq,
                "appended_since_recluster": delta.appended_since_recluster,
                "reclustered": delta.reclustered,
                "staleness": delta.staleness,
                "probe_items": (repriced + added)[: controller.config.probe_items_cap],
            },
        )
        probe_items = store.read_manifest(candidate).get("probe_items") or None
        index, ann = step("lifecycle.store.load_version", store.load_version, candidate)
        report = step(
            "lifecycle.gates.run_gates", run_gates, index, ann, controller.config.gates,
            probe_items=probe_items,
        )
        self.attempted += 1
        if not report.passed:
            self.failed += 1
        step("lifecycle.store.set_current", store.set_current, candidate)
        step("serving.service.swap_index", service.swap_index, index, ann=ann)
        users = self._burst_users(part=-2)
        answers, _ = step("serving.service.post_swap_burst", self._burst, users)
        self.attempted += len(users)
        self.failed += self._bad_answers(users, answers, 10)

        out["lifecycle.journal.replay_ms"] = steps["lifecycle.journal.replay"] * 1e3
        out["lifecycle.store.load_version_ms"] = steps["lifecycle.store.load_version"] / 2 * 1e3
        out["lifecycle.foldin.fold_in_ms"] = steps["lifecycle.foldin.fold_in"] * 1e3
        out["lifecycle.foldin.entities_solved"] = float(
            fold.new_users + fold.new_items + fold.refreshed_users
        )
        out["lifecycle.delta.delta_build_ms"] = steps["lifecycle.delta.delta_build"] * 1e3
        out["lifecycle.store.write_candidate_ms"] = steps["lifecycle.store.write_candidate"] * 1e3
        out["lifecycle.gates.run_gates_ms"] = steps["lifecycle.gates.run_gates"] * 1e3
        out["lifecycle.store.set_current_ms"] = steps["lifecycle.store.set_current"] * 1e3
        out["serving.service.swap_index_ms"] = steps["serving.service.swap_index"] * 1e3
        out["serving.service.post_swap_burst_ms"] = steps["serving.service.post_swap_burst"] * 1e3
        mirrored = sum(steps.values()) - steps["serving.service.post_swap_burst"]

        # The same round through the controller's own build() and promote().
        ingest(self._events())
        with tracer.span("ledger.lifecycle.controller.build_promote") as span:
            built = controller.build()
            promoted, _ = controller.promote(built, service=service)
        self.attempted += 1
        if promoted is None:
            self.failed += 1
        out["lifecycle.controller.unattributed_ms"] = (span.duration - mirrored) * 1e3
        out["lifecycle.journal.ingest_ms_first"] = self.ingest_ms[0]
        out["lifecycle.journal.ingest_ms_last"] = self.ingest_ms[-1]
        return out
