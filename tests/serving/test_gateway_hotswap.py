"""Satellite: hot-swap while the gateway is concurrently admitting/flushing.

The two failure modes being pinned, per the issue:

* a *neither-index* result — a request answered partly by index A and
  partly by index B (e.g. A's scores ranked against B's catalog state);
  every result must match one of the two indexes exactly;
* a deadlock between ``swap_index()`` (which drains under the service's
  flush lock) and the gateway's flusher thread (which flushes under the
  same lock).

The swap is barrier-coordinated so it reliably lands in the middle of the
submit storm, not before or after it.
"""

import threading

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.serving import GatewayConfig, RecommenderService, ServingGateway, export_index

from test_service_hotswap import rebuilt_index


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


@pytest.mark.parametrize("trial", range(3))
def test_swap_under_load_never_mixes_indexes_or_deadlocks(index, trial):
    new_index = rebuilt_index(index)
    k = 8
    expected_old = {
        u: RecommenderService(index, default_k=k).recommend(u).items
        for u in range(index.n_users)
    }
    expected_new = {
        u: RecommenderService(new_index, default_k=k).recommend(u).items
        for u in range(index.n_users)
    }

    service = RecommenderService(index, default_k=k, max_batch_size=8, cache_capacity=32)
    config = GatewayConfig(max_queue_depth=256, max_wait_ms=1.0)
    n_workers = 4
    # workers + swapper rendezvous so the swap lands mid-storm
    barrier = threading.Barrier(n_workers + 1)
    failures = []
    failures_lock = threading.Lock()

    def record(entry) -> None:
        with failures_lock:
            failures.append(entry)

    with ServingGateway(service, config) as gateway:
        def worker(seed: int) -> None:
            rng = np.random.default_rng(1000 * trial + seed)
            barrier.wait()
            for _ in range(60):
                user = int(rng.integers(0, index.n_users))
                try:
                    rec = gateway.submit(user).result(timeout=15.0)
                except Exception as exc:  # noqa: BLE001 - recorded for the assert
                    record((user, repr(exc)))
                    continue
                from_old = np.array_equal(rec.items, expected_old[user])
                from_new = np.array_equal(rec.items, expected_new[user])
                if not (from_old or from_new):
                    record((user, "neither-index result"))

        def swapper() -> None:
            barrier.wait()
            gateway.swap_index(new_index)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_workers)]
        swap_thread = threading.Thread(target=swapper)
        for t in threads:
            t.start()
        swap_thread.start()
        deadline_join = 60.0
        for t in threads + [swap_thread]:
            t.join(timeout=deadline_join)
            assert not t.is_alive(), "deadlock: thread still running after join timeout"

        assert not failures, failures[:5]

        # steady state after the swap: everything comes from the new index
        for user in range(0, index.n_users, 5):
            rec = gateway.submit(user).result(timeout=15.0)
            np.testing.assert_array_equal(rec.items, expected_new[user])


def test_requests_admitted_during_swap_get_new_index(index):
    """swap_index drains the old queue first; anything admitted after the
    swap returns must be answered wholly by the new index."""
    new_index = rebuilt_index(index)
    service = RecommenderService(index, default_k=6, max_batch_size=4, cache_capacity=0)
    with ServingGateway(
        service, GatewayConfig(max_queue_depth=64, max_wait_ms=5.0)
    ) as gateway:
        before = gateway.submit(1)
        gateway.swap_index(new_index)
        after = gateway.submit(1)
        expected_old = RecommenderService(index, default_k=6).recommend(1).items
        expected_new = RecommenderService(new_index, default_k=6).recommend(1).items
        np.testing.assert_array_equal(before.result(timeout=10.0).items, expected_old)
        np.testing.assert_array_equal(after.result(timeout=10.0).items, expected_new)


class _MismatchedANN:
    """An ANN index built for a different catalog (engine must reject it)."""

    kind = "mismatched"

    def __init__(self, n_items):
        self.n_items = n_items

    def search(self, *args, **kwargs):  # pragma: no cover - never reached
        raise AssertionError("a rejected ANN index must never be searched")


def test_failed_swap_rolls_back_completely(index):
    """Satellite: swap_index under failure must complete or roll back.

    A swap whose engine construction fails (here: an ANN index covering
    the wrong catalog) must leave the service answering from the old
    index, with the old cache intact — never a torn state where
    ``service.index`` is new but the engine still scores the old catalog.
    """
    new_index = rebuilt_index(index)
    service = RecommenderService(index, default_k=6, cache_capacity=32)
    with ServingGateway(
        service, GatewayConfig(max_queue_depth=64, max_wait_ms=2.0)
    ) as gateway:
        before = gateway.submit(2).result(timeout=10.0)
        old_engine = service.engine
        with pytest.raises(ValueError, match="rebuild the ann index"):
            gateway.swap_index(new_index, ann=_MismatchedANN(index.n_items + 99))
        # Rolled back: same index object, same engine, cache not evicted.
        assert service.index is index
        assert service.engine is old_engine
        after = gateway.submit(2).result(timeout=10.0)
        np.testing.assert_array_equal(after.items, before.items)
        assert after.cached, "a failed swap must not have flushed the cache"


def test_swap_mid_chaos_completes_or_rolls_back(index):
    """Satellite: hot-swap racing a fault storm either lands completely
    (every later answer matches the new index) or fails leaving the old
    index fully in charge — no mixed answers either way."""
    from repro.faults import SCORER_ERROR, FaultPlan, FaultSpec
    from repro.serving import DegradedResponse, ResilienceConfig

    new_index = rebuilt_index(index)
    k = 6
    expected_old = {
        u: RecommenderService(index, default_k=k).recommend(u).items
        for u in range(index.n_users)
    }
    expected_new = {
        u: RecommenderService(new_index, default_k=k).recommend(u).items
        for u in range(index.n_users)
    }
    plan = FaultPlan([FaultSpec(SCORER_ERROR, probability=0.2)], seed=9)
    service = RecommenderService(
        index, default_k=k, max_batch_size=8, cache_capacity=0,
        resilience=ResilienceConfig(retries=1, backoff_s=0.0),
        fault_plan=plan,
    )
    barrier = threading.Barrier(2)
    failures = []

    with ServingGateway(
        service, GatewayConfig(max_queue_depth=256, max_wait_ms=1.0)
    ) as gateway:
        def storm():
            barrier.wait()
            rng = np.random.default_rng(4)
            for _ in range(80):
                user = int(rng.integers(0, index.n_users))
                answer = gateway.submit(user).result(timeout=15.0)
                if isinstance(answer, DegradedResponse):
                    continue  # ladder answers are price-profile, not top-K
                from_old = np.array_equal(answer.items, expected_old[user])
                from_new = np.array_equal(answer.items, expected_new[user])
                if not (from_old or from_new):
                    failures.append((user, answer.items))

        worker = threading.Thread(target=storm)
        worker.start()
        barrier.wait()
        gateway.swap_index(new_index)
        worker.join(timeout=60.0)
        assert not worker.is_alive(), "chaos swap deadlocked"
        assert not failures, failures[:3]
        # the swap completed: steady state is wholly the new index
        answer = gateway.submit(5).result(timeout=15.0)
        while isinstance(answer, DegradedResponse):
            answer = gateway.submit(5).result(timeout=15.0)
        np.testing.assert_array_equal(answer.items, expected_new[5])
