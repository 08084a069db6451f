"""ServingGateway: admission control, dual-trigger batching, rate limits.

The acceptance criterion pinned throughout: the gateway changes *when*
work happens (batching, shedding, pacing), never *what* is computed —
results through the gateway are bit-identical to the synchronous
``recommend_many`` path for the same requests.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.faults import SCORER_DELAY, FaultPlan, FaultSpec
from repro.obs import MetricsRegistry, Tracer
from repro.serving import (
    GatewayClosed,
    GatewayConfig,
    Overloaded,
    RateLimited,
    RecommenderService,
    ServingGateway,
    TokenBucket,
    export_index,
)


@pytest.fixture(scope="module")
def setup():
    config = SyntheticConfig(
        n_users=40, n_items=60, n_categories=4, n_price_levels=4,
        interactions_per_user=7, seed=13,
    )
    dataset = generate(config)[0]
    model = pup_full(dataset, global_dim=10, category_dim=4, rng=np.random.default_rng(5))
    model.eval()
    index = export_index(model, dataset)
    return dataset, model, index


def make_service(index, **kwargs):
    kwargs.setdefault("default_k", 8)
    kwargs.setdefault("cache_capacity", 0)
    return RecommenderService(index, **kwargs)


class TestAdmission:
    def test_overloaded_when_queue_full(self, setup):
        _, _, index = setup
        service = make_service(index, max_batch_size=1000)
        with ServingGateway(
            service, GatewayConfig(max_queue_depth=3, max_wait_ms=10_000.0)
        ) as gateway:
            for user in range(3):
                gateway.submit(user)
            with pytest.raises(Overloaded):
                gateway.submit(3)
            assert gateway.queue_depth == 3  # bound held
            assert gateway.shed_count("queue_full") == 1
            # shedding freed nothing: draining answers exactly the admitted 3
            assert gateway.drain() == 3

    def test_rate_limit_per_tenant(self, setup):
        _, _, index = setup
        clock = [0.0]
        service = make_service(index, max_batch_size=1000, clock=lambda: clock[0])
        config = GatewayConfig(
            max_queue_depth=100, max_wait_ms=10_000.0, rate_limit=10.0, rate_burst=2.0
        )
        with ServingGateway(service, config) as gateway:
            gateway.submit(0, tenant="a")
            gateway.submit(1, tenant="a")
            with pytest.raises(RateLimited):
                gateway.submit(2, tenant="a")
            # tenants are isolated: "b" has its own bucket
            gateway.submit(2, tenant="b")
            # refill at 10/s: 0.1 simulated seconds buys one token back
            clock[0] += 0.1
            gateway.submit(3, tenant="a")
            assert gateway.shed_count("rate_limited") == 1

    def test_closed_gateway_sheds_and_restores_service(self, setup):
        _, _, index = setup
        service = make_service(index, max_batch_size=7)
        gateway = ServingGateway(service, GatewayConfig(max_queue_depth=10, max_wait_ms=10_000.0))
        pending = gateway.submit(0)
        assert gateway.close() == 1  # final drain answered the straggler
        assert pending.done
        with pytest.raises(GatewayClosed):
            gateway.submit(1)
        assert gateway.close() == 0  # idempotent
        assert service.max_batch_size == 7  # the gateway never touched it

    def test_attach_close_reattach_leaves_service_batching_untouched(self, setup):
        """The gateway only admits: the service's ``max_batch_size`` and its
        own inline size trigger are the same before, while and after a
        gateway is attached."""
        _, _, index = setup
        service = make_service(index, max_batch_size=3)

        def size_trigger_fires_at_three():
            pendings = [service.submit(user) for user in range(3)]
            return [p.done for p in pendings] == [True, True, True]

        config = GatewayConfig(max_queue_depth=10, max_wait_ms=10_000.0)
        assert size_trigger_fires_at_three()
        for _ in range(2):  # attach, close, re-attach, close
            with ServingGateway(service, config) as gateway:
                assert service.max_batch_size == 3
                assert size_trigger_fires_at_three()  # direct callers, gateway attached
                first = [gateway.submit(user) for user in range(2)]
                assert not any(p.done for p in first)
                assert gateway.submit(2).done and all(p.done for p in first)
            assert service.max_batch_size == 3
            assert size_trigger_fires_at_three()

    def test_admission_is_not_serialized_behind_a_running_batch(self, setup):
        """While one thread's size-triggered flush is held open by a slow
        scorer, another thread's submit is admitted (queued) and returns."""
        _, _, index = setup
        hold_s = 1.0
        plan = FaultPlan([FaultSpec(SCORER_DELAY, times=(0,), delay_s=hold_s)])
        service = make_service(index, max_batch_size=2, fault_plan=plan)
        config = GatewayConfig(max_queue_depth=100, max_wait_ms=10_000.0)
        with ServingGateway(service, config) as gateway:
            flushed = []

            def fill_a_batch():
                gateway.submit(0)
                flushed.append(gateway.submit(1))  # crosses the size trigger, runs the batch

            first = threading.Thread(target=fill_a_batch)
            first.start()
            try:
                give_up = time.perf_counter() + 10.0
                while plan.fires(SCORER_DELAY) < 1 and time.perf_counter() < give_up:
                    time.sleep(0.001)
                assert plan.fires(SCORER_DELAY) == 1, "the slow batch never started"
                began = time.perf_counter()
                queued = gateway.submit(2)
                admitted_in = time.perf_counter() - began
                assert first.is_alive() and not flushed, "the slow batch already finished"
                assert not queued.done  # admitted into the queue, not answered yet
                assert admitted_in < hold_s / 2, f"admission waited {admitted_in:.3f}s"
            finally:
                first.join(timeout=30.0)
            assert not first.is_alive() and flushed[0].done
            assert gateway.drain() == 1 and queued.done

    def test_depth_bound_and_books_hold_under_hammering(self, setup):
        """8 threads against ``max_queue_depth=5``: the bound is never raced
        past and every submit is either admitted or shed, never both or
        neither."""
        _, _, index = setup
        depth, n_threads, per_thread = 5, 8, 150
        service = make_service(index, max_batch_size=1000)
        config = GatewayConfig(max_queue_depth=depth, max_wait_ms=1.0)
        barrier = threading.Barrier(n_threads)
        lock = threading.Lock()
        seen = {"admitted": 0, "shed": 0, "max_depth": 0}

        def hammer(seed):
            admitted = shed = max_depth = 0
            barrier.wait()
            for i in range(per_thread):
                try:
                    gateway.submit((seed * per_thread + i) % index.n_users)
                    admitted += 1
                except Overloaded:
                    shed += 1
                max_depth = max(max_depth, gateway.queue_depth)
            with lock:
                seen["admitted"] += admitted
                seen["shed"] += shed
                seen["max_depth"] = max(seen["max_depth"], max_depth)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServingGateway(service, config) as gateway:
                threads = [threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
                snap = gateway.snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert seen["max_depth"] <= depth
        assert seen["admitted"] + seen["shed"] == n_threads * per_thread
        assert snap["admitted"] == seen["admitted"]
        assert snap["shed_queue_full"] == seen["shed"] > 0
        assert service.stats.outcome_count("ok") == seen["admitted"]  # close() drained the rest


class TestDualTrigger:
    def test_size_trigger_flushes_inline(self, setup):
        _, _, index = setup
        service = make_service(index, max_batch_size=3)
        config = GatewayConfig(max_queue_depth=100, max_wait_ms=10_000.0)
        with ServingGateway(service, config) as gateway:
            first = [gateway.submit(u) for u in range(2)]
            assert not any(p.done for p in first)  # below both triggers
            third = gateway.submit(2)
            assert third.done and all(p.done for p in first)
            assert gateway.snapshot()["flushes_size"] == 1.0

    def test_deadline_trigger_flushes_in_background(self, setup):
        _, _, index = setup
        service = make_service(index, max_batch_size=1000)
        config = GatewayConfig(max_queue_depth=100, max_wait_ms=10.0)
        with ServingGateway(service, config) as gateway:
            pending = gateway.submit(0)
            # no explicit flush, no size trigger: the flusher thread must act
            rec = pending.result(timeout=5.0)
            assert rec.user == 0
            assert gateway.snapshot()["flushes_deadline"] >= 1.0

    def test_deadline_measured_from_oldest_request(self, setup):
        """A stream of new submits must not postpone the first request's
        deadline — the timer keys off the *oldest* enqueue time."""
        _, _, index = setup
        service = make_service(index, max_batch_size=1000)
        config = GatewayConfig(max_queue_depth=1000, max_wait_ms=50.0)
        with ServingGateway(service, config) as gateway:
            began = time.perf_counter()
            first = gateway.submit(0)
            stop = threading.Event()

            def trickle() -> None:
                user = 1
                while not stop.is_set() and not first.done:
                    gateway.submit(user % index.n_users)
                    user += 1
                    time.sleep(0.005)

            thread = threading.Thread(target=trickle)
            thread.start()
            try:
                first.result(timeout=5.0)
                waited = time.perf_counter() - began
            finally:
                stop.set()
                thread.join()
            assert waited < 2.0, f"deadline starved by later submits ({waited:.3f}s)"


class TestParity:
    def test_gateway_results_bit_identical_to_sync_path(self, setup):
        """Acceptance criterion: concurrency must not change answers."""
        _, _, index = setup
        users = [u % index.n_users for u in range(120)]
        sync = make_service(index).recommend_many(users, k=8)

        service = make_service(index, max_batch_size=16)
        config = GatewayConfig(max_queue_depth=64, max_wait_ms=2.0)
        answers = {}
        answers_lock = threading.Lock()
        with ServingGateway(service, config) as gateway:
            def worker(shard):
                for i, user in shard:
                    rec = gateway.submit(user, k=8).result(timeout=10.0)
                    with answers_lock:
                        answers[i] = rec

            shards = [list(enumerate(users))[t::4] for t in range(4)]
            threads = [threading.Thread(target=worker, args=(s,)) for s in shards]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for i, expected in enumerate(sync):
            np.testing.assert_array_equal(answers[i].items, expected.items)
            np.testing.assert_array_equal(answers[i].scores, expected.scores)


class TestObservability:
    def test_metric_families_present_and_accounted(self, setup):
        _, _, index = setup
        registry = MetricsRegistry()
        tracer = Tracer()
        service = make_service(index, registry=registry, tracer=tracer, max_batch_size=1000)
        config = GatewayConfig(max_queue_depth=2, max_wait_ms=10_000.0)
        with ServingGateway(service, config) as gateway:
            gateway.submit(0)
            gateway.submit(1)
            with pytest.raises(Overloaded):
                gateway.submit(2)
            gateway.drain()
        text = registry.to_prometheus()
        for family in (
            "gateway_requests_total",
            "gateway_shed_total",
            "gateway_flushes_total",
            "gateway_batch_size",
            "gateway_queue_depth",
        ):
            assert family in text, f"missing {family}"
        # pre-seeded zero series make every shed reason scrapeable
        assert 'gateway_shed_total{reason="rate_limited"} 0' in text
        assert 'gateway_shed_total{reason="queue_full"} 1' in text
        names = [span["name"] for span in tracer.records()]
        assert "gateway.admit" in names
        assert "gateway.batch" in names

    @pytest.mark.parametrize("trigger", ["size", "deadline", "drain", "sync"])
    def test_each_flush_is_counted_once_under_who_asked(self, setup, trigger):
        """One non-empty flush moves exactly one ``gateway_flushes_total``
        series by one and ``gateway_batch_size`` by one sample — including
        the forced ``sync`` flush of a blocking ``result()``."""
        _, _, index = setup
        registry = MetricsRegistry()
        service = make_service(
            index, registry=registry, max_batch_size=2 if trigger == "size" else 1000
        )
        config = GatewayConfig(
            max_queue_depth=100, max_wait_ms=5.0 if trigger == "deadline" else 10_000.0
        )
        triggers = ("size", "deadline", "drain", "sync")
        with ServingGateway(service, config) as gateway:
            before = gateway.snapshot()
            pending = gateway.submit(0)
            if trigger == "size":
                gateway.submit(1)
            elif trigger == "deadline":
                pending.result(timeout=10.0)
            elif trigger == "drain":
                gateway.drain()
            else:
                pending.result()
            assert pending.done
            after = gateway.snapshot()
        moved = {t: after[f"flushes_{t}"] - before[f"flushes_{t}"] for t in triggers}
        assert moved == {t: float(t == trigger) for t in triggers}
        assert "gateway_batch_size_count 1" in registry.to_prometheus()

    def test_snapshot_accounts_every_outcome(self, setup):
        _, _, index = setup
        service = make_service(index, max_batch_size=1000)
        config = GatewayConfig(max_queue_depth=2, max_wait_ms=10_000.0)
        with ServingGateway(service, config) as gateway:
            gateway.submit(0)
            gateway.submit(1)
            with pytest.raises(Overloaded):
                gateway.submit(2)
            gateway.drain()
            snap = gateway.snapshot()
        assert snap["admitted"] == 2.0
        assert snap["shed_queue_full"] == 1.0
        assert snap["flushes_drain"] >= 1.0


class TestTokenBucket:
    def test_burst_then_sustained_rate(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: clock[0])
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
        clock[0] += 0.5  # one token refilled at 2/s
        assert bucket.try_acquire() is True
        assert bucket.try_acquire() is False
        clock[0] += 100.0  # refill caps at burst
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0, clock=time.perf_counter)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5, clock=time.perf_counter)
        with pytest.raises(ValueError):
            GatewayConfig(max_wait_ms=0.0)
        with pytest.raises(ValueError):
            GatewayConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            GatewayConfig(rate_limit=-1.0)
