"""Versioned rollout: store invariants, gated promotion, crash recovery.

Soft-crash injection (``InjectedFault``, not ``hard_kill``) exercises the
same code paths as a SIGKILL drill in-process: the exception aborts the
operation at the injected point and a fresh controller must recover.  The
process-level SIGKILL variant lives in ``benchmarks/lifecycle_smoke.py``.
"""

import json
import os

import numpy as np
import pytest

from repro.faults import (
    LIFECYCLE_BUILD_CRASH,
    LIFECYCLE_INGEST_CRASH,
    LIFECYCLE_PROMOTE_CRASH,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.lifecycle import (
    GateConfig,
    LifecycleConfig,
    LifecycleController,
    StoreError,
    VersionStore,
    journal_digest,
    simulate_events,
)
from repro.obs.metrics import MetricsRegistry
from repro.serving.ann import build_ivf


def make_config():
    gates = GateConfig(nprobe=7, recall_users=32, parity_users=8)
    return LifecycleConfig(gates=gates, segment_records=64)


def bootstrapped(tmp_path, index, ann, name="store", **kwargs):
    controller = LifecycleController(
        str(tmp_path / name), config=make_config(), **kwargs
    )
    controller.bootstrap(index, ann)
    return controller


def stream(index, count, seed=0, start_seq=0):
    return simulate_events(
        index.n_users, index.n_items, count, seed=seed, start_seq=start_seq,
        n_categories=index.n_categories,
    )


class TestStore:
    def test_manifest_last_and_no_reuse(self, tmp_path, index, ann):
        store = VersionStore(str(tmp_path))

        class Boom(RuntimeError):
            pass

        def hook():
            raise Boom

        with pytest.raises(Boom):
            store.write_candidate(index, ann, {"parent": None}, crash_hook=hook)
        torn = os.path.join(store.versions_dir, "v000001")
        assert os.path.exists(os.path.join(torn, "index", "metadata.json"))
        assert not os.path.exists(os.path.join(torn, "manifest.json"))
        assert store.list_versions() == []  # torn dirs are invisible
        with pytest.raises(StoreError, match="no committed manifest"):
            store.set_current("v000001")
        # While the torn dir exists its name is skipped...
        assert store.next_version_name() == "v000002"

        actions = store.recover()
        assert actions["swept"] == ["v000001"]
        assert not os.path.exists(torn)
        # ...and once swept it is recycled — safe, it was never committed.
        name = store.write_candidate(index, ann, {"parent": None})
        assert name == "v000001"

    def test_current_flip_stamps_statuses(self, tmp_path, index, ann):
        store = VersionStore(str(tmp_path))
        first = store.write_candidate(index, ann, {"parent": None})
        second = store.write_candidate(index, ann, {"parent": first})
        store.set_current(first)
        assert store.read_manifest(first)["status"] == "live"
        assert store.read_manifest(second)["status"] == "candidate"
        previous = store.set_current(second)
        assert previous == first
        assert store.current() == second
        assert store.read_manifest(first)["status"] == "superseded"
        assert store.read_manifest(second)["status"] == "live"

    def test_recover_reconciles_stamps_with_pointer(self, tmp_path, index, ann):
        store = VersionStore(str(tmp_path))
        first = store.write_candidate(index, ann, {"parent": None})
        second = store.write_candidate(index, ann, {"parent": first})
        store.set_current(first)
        # Simulate a crash between the pointer flip and the stamps: the
        # pointer names `second` but the manifests still say otherwise.
        with open(store.current_path, "w", encoding="utf-8") as fh:
            json.dump({"version": second}, fh)
        actions = store.recover()
        assert sorted(actions["restamped"]) == [
            f"{first}:superseded",
            f"{second}:live",
        ]
        assert store.recover()["restamped"] == []  # idempotent

    def test_rollback_flips_to_parent(self, tmp_path, index, ann):
        store = VersionStore(str(tmp_path))
        first = store.write_candidate(index, ann, {"parent": None})
        second = store.write_candidate(index, ann, {"parent": first})
        store.set_current(first)
        store.set_current(second)
        assert store.rollback("bad recall in prod") == first
        assert store.current() == first
        manifest = store.read_manifest(second)
        assert manifest["status"] == "rejected"
        assert manifest["rejected_reason"] == "bad recall in prod"
        # Archives survive: rolling back is itself reversible.
        store.load_version(second)

    def test_rollback_error_cases(self, tmp_path, index, ann):
        store = VersionStore(str(tmp_path))
        with pytest.raises(StoreError, match="nothing is live"):
            store.rollback()
        first = store.write_candidate(index, ann, {"parent": None})
        store.set_current(first)
        with pytest.raises(StoreError, match="no parent"):
            store.rollback()

    def test_recover_rejects_tampered_pointer(self, tmp_path, index, ann):
        store = VersionStore(str(tmp_path))
        with open(store.current_path, "w", encoding="utf-8") as fh:
            json.dump({"version": "v000099"}, fh)
        with pytest.raises(StoreError, match="no manifest"):
            store.recover()

    def test_load_torn_version_refused(self, tmp_path, index, ann):
        store = VersionStore(str(tmp_path))
        with pytest.raises(StoreError, match="torn or unknown"):
            store.load_version("v000042")


class TestControllerHappyPath:
    def test_full_loop_with_metrics(self, tmp_path, index, ann):
        metrics = MetricsRegistry()
        controller = bootstrapped(tmp_path, index, ann, metrics=metrics)
        counter = metrics.get("lifecycle_versions_total")
        gauge = metrics.get("lifecycle_journal_lag")
        assert controller.store.current() == "v000001"
        assert counter.value(outcome="promoted") == 1
        assert counter.value(outcome="built") == 0  # pre-seeded, still zero
        assert gauge.value() == 0

        events = stream(index, 120, seed=2)
        report = controller.ingest(events)
        assert report == {"appended": 120, "skipped": 0, "last_seq": 119}
        assert gauge.value() == 120

        candidate = controller.build()
        assert candidate == "v000002"
        assert counter.value(outcome="built") == 1
        assert controller.store.read_manifest(candidate)["parent"] == "v000001"

        promoted, gate_report = controller.promote()
        assert promoted == candidate
        assert gate_report.passed
        assert set(gate_report.gates) == {"recall", "price_band", "parity"}
        assert controller.store.current() == candidate
        assert counter.value(outcome="promoted") == 2
        assert gauge.value() == 0

    def test_reingest_is_exactly_once(self, tmp_path, index, ann):
        controller = bootstrapped(tmp_path, index, ann)
        events = stream(index, 50, seed=3)
        controller.ingest(events)
        digest = journal_digest(controller.store.journal_dir)
        report = controller.ingest(events)  # the whole stream, again
        assert report["appended"] == 0 and report["skipped"] == 50
        assert journal_digest(controller.store.journal_dir) == digest

    def test_build_with_empty_journal_is_none(self, tmp_path, index, ann):
        controller = bootstrapped(tmp_path, index, ann)
        assert controller.build() is None

    def test_bootstrap_is_once(self, tmp_path, index, ann):
        controller = bootstrapped(tmp_path, index, ann)
        with pytest.raises(StoreError, match="bootstrap is once"):
            controller.bootstrap(index, ann)

    def test_promote_hot_swaps_service(self, tmp_path, index, ann):
        swaps = []

        class FakeService:
            def swap_index(self, new_index, ann=None):
                swaps.append((new_index.n_items, ann.n_items))

        controller = bootstrapped(tmp_path, index, ann)
        controller.ingest(stream(index, 80, seed=4))
        controller.build()
        promoted, _ = controller.promote(service=FakeService())
        assert promoted is not None
        grown = controller.store.read_manifest(promoted)["n_items"]
        assert swaps == [(grown, grown)]


class TestGateRejection:
    def test_impossible_floor_rejects_and_preserves_live(self, tmp_path, index, ann):
        metrics = MetricsRegistry()
        controller = bootstrapped(tmp_path, index, ann, metrics=metrics)
        controller.ingest(stream(index, 80, seed=5))
        candidate = controller.build()

        strict = LifecycleController(
            str(tmp_path / "store"),
            # one probed list cannot find every exact neighbour
            config=LifecycleConfig(gates=GateConfig(
                nprobe=1, recall_floor=1.0, recall_users=32, parity_users=8,
            )),
            metrics=metrics,
        )
        promoted, report = strict.promote(candidate)
        assert promoted is None
        assert not report.passed
        assert any("recall" in f for f in report.failures)
        assert strict.store.current() == "v000001"  # live untouched
        manifest = strict.store.read_manifest(candidate)
        assert manifest["status"] == "rejected"
        assert "recall" in manifest["rejected_reason"]
        assert metrics.get("lifecycle_versions_total").value(outcome="rejected") == 1

    def test_recluster_candidate_keeps_nprobe_and_promotes(self, tmp_path, index, ann):
        controller = LifecycleController(
            str(tmp_path / "store"),
            config=LifecycleConfig(
                gates=GateConfig(recall_floor=0.9, recall_users=32, parity_users=8),
                staleness_threshold=0.0,
            ),
        )
        controller.bootstrap(index, ann)
        controller.ingest(stream(index, 120, seed=8))
        name = controller.build()
        assert controller.store.read_manifest(name)["reclustered"]
        assert controller.store.load_version(name)[1].nprobe == ann.nprobe
        promoted, report = controller.promote()
        assert promoted == name, report.failures

    def test_pq_fallback_rebuild_keeps_the_companion(self, tmp_path, index):
        settings = dict(
            nprobe=7, seed=0, rerank_factor=3,
            pq=True, pq_subspace_dim=3, pq_centroids=16, pq_rotation=True,
        )
        controller = bootstrapped(tmp_path, index, build_ivf(index, **settings))
        controller.ingest(stream(index, 120, seed=8))
        name = controller.build()
        new_index, got = controller.store.load_version(name)
        want = build_ivf(new_index, **settings)
        assert (got.nprobe, got.rerank_factor) == (7, 3)
        assert got.pq is not None and len(got.pq) == len(want.pq)
        for a, b in zip(got.pq, want.pq):
            assert a.splits == b.splits
            np.testing.assert_array_equal(a.rotation, b.rotation)
            np.testing.assert_array_equal(a.codes, b.codes)
            for ca, cb in zip(a.codebooks, b.codebooks):
                np.testing.assert_array_equal(ca, cb)

    def test_no_candidate_to_promote(self, tmp_path, index, ann):
        controller = bootstrapped(tmp_path, index, ann)
        with pytest.raises(StoreError, match="no candidate"):
            controller.promote()


class TestCrashRecovery:
    def test_ingest_crash_then_redrive_converges(self, tmp_path, index, ann):
        root = str(tmp_path / "store")
        plan = FaultPlan([FaultSpec(LIFECYCLE_INGEST_CRASH, times=(30,))])
        controller = bootstrapped(tmp_path, index, ann, fault_plan=plan)
        events = stream(index, 80, seed=6)
        with pytest.raises(InjectedFault):
            controller.ingest(events)
        # 30 events landed before the crash (occurrence index 30 fired).
        assert controller.journal_lag() == 30

        recovered = LifecycleController(root, config=make_config())
        report = recovered.ingest(events)  # identical stream, re-driven
        assert report == {"appended": 50, "skipped": 30, "last_seq": 79}

        reference = bootstrapped(tmp_path, index, ann, name="reference")
        reference.ingest(events)
        assert journal_digest(recovered.store.journal_dir) == journal_digest(
            reference.store.journal_dir
        )

    def test_build_crash_leaves_torn_dir_swept_on_restart(self, tmp_path, index, ann):
        root = str(tmp_path / "store")
        plan = FaultPlan([FaultSpec(LIFECYCLE_BUILD_CRASH, times=(0,))])
        controller = bootstrapped(tmp_path, index, ann, fault_plan=plan)
        controller.ingest(stream(index, 60, seed=7))
        with pytest.raises(InjectedFault):
            controller.build()
        torn = os.path.join(controller.store.versions_dir, "v000002")
        assert os.path.isdir(torn)
        assert controller.store.list_versions() == ["v000001"]

        recovered = LifecycleController(root, config=make_config())
        assert recovered.recovery["swept"] == ["v000002"]
        assert not os.path.exists(torn)
        assert recovered.store.current() == "v000001"  # serving never broke
        candidate = recovered.build()
        assert candidate == "v000002"  # swept name, recycled
        promoted, _ = recovered.promote()
        assert promoted == candidate

    def test_promote_crash_leaves_candidate_repromotable(self, tmp_path, index, ann):
        root = str(tmp_path / "store")
        plan = FaultPlan([FaultSpec(LIFECYCLE_PROMOTE_CRASH, times=(0,))])
        controller = bootstrapped(tmp_path, index, ann, fault_plan=plan)
        controller.ingest(stream(index, 60, seed=8))
        candidate = controller.build()
        with pytest.raises(InjectedFault):
            controller.promote()
        # Gates passed, pointer never flipped: live is intact and the
        # candidate is still a candidate, not rejected.
        assert controller.store.current() == "v000001"
        assert controller.store.read_manifest(candidate)["status"] == "candidate"

        recovered = LifecycleController(root, config=make_config())
        assert recovered.recovery["restamped"] == []
        promoted, report = recovered.promote()
        assert promoted == candidate and report.passed
        assert recovered.store.current() == candidate

    def test_controller_rollback_counts_and_swaps(self, tmp_path, index, ann):
        metrics = MetricsRegistry()
        swaps = []

        class FakeService:
            def swap_index(self, new_index, ann=None):
                swaps.append(new_index.n_items)

        controller = bootstrapped(tmp_path, index, ann, metrics=metrics)
        controller.ingest(stream(index, 60, seed=9))
        controller.build()
        promoted, _ = controller.promote()
        assert promoted is not None
        back = controller.rollback("operator decision", service=FakeService())
        assert back == "v000001"
        assert controller.store.current() == "v000001"
        assert swaps == [index.n_items]
        assert metrics.get("lifecycle_versions_total").value(outcome="rolled_back") == 1

    def test_status_reports_journal_and_versions(self, tmp_path, index, ann):
        controller = bootstrapped(tmp_path, index, ann)
        controller.ingest(stream(index, 25, seed=10))
        payload = controller.status()
        assert payload["current"] == "v000001"
        assert payload["journal"] == {"last_seq": 24, "lag": 25}
        assert [v["version"] for v in payload["versions"]] == ["v000001"]


class TestConfigChecks:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"recall_k": 0}, "recall_k must be >= 1"),
            ({"recall_floor": -0.1}, r"recall_floor must be in \[0, 1\]"),
            ({"recall_floor": 1.01}, r"recall_floor must be in \[0, 1\]"),
            ({"nprobe": 0}, "nprobe must be None or >= 1"),
        ],
    )
    def test_gate_config_rejects(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            GateConfig(**overrides)

    def test_gate_config_accepts_its_bounds(self):
        GateConfig(recall_k=1, recall_floor=0.0, nprobe=1)
        GateConfig(recall_floor=1.0, nprobe=None)

    def test_lifecycle_config_staleness_threshold(self):
        assert LifecycleConfig(staleness_threshold=0.0).staleness_threshold == 0.0
        with pytest.raises(ValueError, match="staleness_threshold must be >= 0"):
            LifecycleConfig(staleness_threshold=-0.5)
