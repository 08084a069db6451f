"""Gateway under faults: supervised flusher, watchdog restart, deadlines.

Regression target: a flusher thread dying with an uncaught exception used
to leave every queued request waiting forever (the silent-hang bug).  The
supervisor must fail pending requests with a *typed* error and restart the
loop, and the books must still balance.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.faults import FLUSHER_CRASH, FaultPlan, FaultSpec
from repro.serving import (
    DeadlineExceeded,
    FlusherCrashed,
    GatewayConfig,
    RecommenderService,
    ResilienceConfig,
    ServingGateway,
    export_index,
)


@pytest.fixture(scope="module")
def index():
    config = SyntheticConfig(
        n_users=40, n_items=60, n_categories=4, n_price_levels=4,
        interactions_per_user=7, seed=13,
    )
    dataset = generate(config)[0]
    model = pup_full(dataset, global_dim=10, category_dim=4, rng=np.random.default_rng(5))
    model.eval()
    return export_index(model, dataset)


class TestFlusherSupervision:
    def test_crash_fails_pending_typed_and_restarts(self, index):
        plan = FaultPlan([FaultSpec(FLUSHER_CRASH, times=(0,))])
        service = RecommenderService(index)
        gateway = ServingGateway(
            service, GatewayConfig(max_wait_ms=5.0), fault_plan=plan
        )
        try:
            pending = gateway.submit(7)
            with pytest.raises(FlusherCrashed, match="restarted"):
                pending.result(timeout=10.0)
            # The supervisor restarted the loop: the gateway still serves.
            answer = gateway.submit(8).result(timeout=10.0)
            assert len(answer.items) > 0
            assert gateway.flusher_restarts() == 1
            assert gateway.snapshot()["flusher_restarts"] == 1.0
        finally:
            gateway.close()

    def test_crash_mid_concurrent_load_leaves_no_hung_request(self, index):
        """The regression test: kill the flusher while a thread storm is
        submitting; every admitted request must resolve within the timeout
        as either an answer or a typed error — zero silent hangs."""
        plan = FaultPlan([FaultSpec(FLUSHER_CRASH, times=(5, 11))])
        service = RecommenderService(index, max_batch_size=4)
        gateway = ServingGateway(
            service,
            GatewayConfig(max_wait_ms=1.0, max_queue_depth=256),
            fault_plan=plan,
        )
        n_threads, per_thread = 6, 20
        outcomes = []
        lock = threading.Lock()

        def worker(base):
            local = []
            for i in range(per_thread):
                try:
                    answer = gateway.submit((base + i) % index.n_users).result(timeout=15.0)
                    local.append(("ok", len(answer.items)))
                except FlusherCrashed:
                    local.append(("crashed", 0))
            with lock:
                outcomes.extend(local)

        threads = [
            threading.Thread(target=worker, args=(t * per_thread,))
            for t in range(n_threads)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads), "a client hung"
        finally:
            gateway.close()

        assert len(outcomes) == n_threads * per_thread
        kinds = {kind for kind, _ in outcomes}
        assert "ok" in kinds
        assert all(size > 0 for kind, size in outcomes if kind == "ok")
        assert gateway.flusher_restarts() >= 1

    def test_submit_watchdog_revives_dead_flusher(self, index):
        service = RecommenderService(index)
        gateway = ServingGateway(service, GatewayConfig(max_wait_ms=2.0))
        try:
            # Simulate a flusher that died in a way the supervisor never
            # saw (e.g. killed by the runtime): swap in a dead thread.
            dead = threading.Thread(target=lambda: None)
            dead.start()
            dead.join()
            gateway._flusher = dead
            answer = gateway.submit(3).result(timeout=10.0)
            assert len(answer.items) > 0
            assert gateway._flusher.is_alive()
        finally:
            gateway.close()

    def test_close_does_not_restart_the_flusher(self, index):
        service = RecommenderService(index)
        gateway = ServingGateway(service, GatewayConfig(max_wait_ms=1.0))
        gateway.submit(1).result(timeout=10.0)
        gateway.close()
        time.sleep(0.05)
        assert not gateway._flusher.is_alive()


class TestGatewayDeadlines:
    def test_config_deadline_applies_to_every_request(self, index):
        service = RecommenderService(index)
        gateway = ServingGateway(
            service,
            # Queue requests faster than the flusher may run them: a
            # 0.01 ms deadline expires before any flush can happen.
            GatewayConfig(max_wait_ms=50.0, deadline_ms=0.01),
        )
        try:
            pending = gateway.submit(3)
            with pytest.raises(DeadlineExceeded):
                pending.result(timeout=10.0)
            assert service.stats.deadline_exceeded >= 1
        finally:
            gateway.close()

    def test_per_request_deadline_overrides_config(self, index):
        service = RecommenderService(index)
        gateway = ServingGateway(
            service, GatewayConfig(max_wait_ms=1.0, deadline_ms=0.01)
        )
        try:
            # A generous per-request deadline wins over the doomed default.
            answer = gateway.submit(3, deadline_ms=30_000.0).result(timeout=10.0)
            assert len(answer.items) > 0
        finally:
            gateway.close()

    def test_deadline_validation(self, index):
        with pytest.raises(ValueError, match="deadline_ms"):
            GatewayConfig(deadline_ms=-1.0)


class TestChaosWithResilience:
    def test_flusher_crashes_and_scorer_errors_compose(self, index):
        from repro.faults import SCORER_ERROR

        plan = FaultPlan(
            [
                FaultSpec(FLUSHER_CRASH, times=(3,)),
                FaultSpec(SCORER_ERROR, times=(2, 6)),
            ]
        )
        service = RecommenderService(
            index,
            resilience=ResilienceConfig(retries=1, backoff_s=0.0),
            fault_plan=plan,
        )
        gateway = ServingGateway(
            service, GatewayConfig(max_wait_ms=1.0), fault_plan=plan
        )
        resolved = 0
        try:
            for user in range(25):
                try:
                    gateway.submit(user % index.n_users).result(timeout=15.0)
                    resolved += 1
                except FlusherCrashed:
                    resolved += 1
        finally:
            gateway.close()
        assert resolved == 25
        stats = service.stats
        total = sum(stats.outcome_count(o) for o in ("ok", "degraded", "failed"))
        assert total == 25
