"""RecommenderService: routing, micro-batching, caching, stats."""

import pickle

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.eval import topk_rankings
from repro.faults import SCORER_ERROR, FaultPlan, FaultSpec
from repro.serving import (
    COLD,
    WARM,
    DegradedResponse,
    PriceBandFilter,
    RecommenderService,
    ResilienceConfig,
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
    return RecommenderService(index, **kwargs)


class TestWarmPath:
    def test_warm_user_matches_offline_evaluator(self, setup):
        """Acceptance criterion: service ids == eval ids, bit-identical."""
        dataset, model, index = setup
        service = make_service(index, default_k=10)
        expected = topk_rankings(model, dataset, list(range(dataset.n_users)), k=10)
        for user in range(dataset.n_users):
            rec = service.recommend(user)
            assert rec.source == WARM
            np.testing.assert_array_equal(rec.items, expected[user])

    def test_batched_flush_matches_individual_answers(self, setup):
        dataset, _, index = setup
        users = list(range(0, dataset.n_users, 2))
        batched = make_service(index, default_k=8, cache_capacity=0)
        single = make_service(index, default_k=8, cache_capacity=0)
        batch_answers = batched.recommend_many(users)
        for user, answer in zip(users, batch_answers):
            np.testing.assert_array_equal(answer.items, single.recommend(user).items)

    def test_filters_apply(self, setup):
        dataset, _, index = setup
        service = make_service(index)
        rec = service.recommend(1, k=5, filters=[PriceBandFilter(0, 1)])
        assert len(rec.items) > 0
        assert (dataset.item_price_levels[rec.items] <= 1).all()


class TestColdPath:
    def test_unseen_user_gets_nonempty_fallback(self, setup):
        """Acceptance criterion: cold users get non-empty recommendations."""
        _, _, index = setup
        service = make_service(index, default_k=10)
        rec = service.recommend(index.n_users + 1234)
        assert rec.source == COLD
        assert len(rec.items) == 10
        assert len(set(rec.items.tolist())) == 10

    def test_price_profile_steers_fallback(self, setup):
        dataset, _, index = setup
        service = make_service(index, default_k=5)
        cheap = np.zeros(dataset.n_price_levels)
        cheap[0] = 1.0
        rec = service.recommend(10**9, price_profile=cheap)
        # Every recommended item sits in the only level with probability mass.
        assert (dataset.item_price_levels[rec.items] == 0).all()

    def test_cold_with_filters(self, setup):
        dataset, _, index = setup
        service = make_service(index, default_k=5)
        rec = service.recommend(10**9, filters=[PriceBandFilter(2, 3)])
        assert rec.source == COLD
        assert len(rec.items) > 0
        assert (dataset.item_price_levels[rec.items] >= 2).all()

    def test_warm_user_profile_is_dropped_and_cache_deduped(self, setup):
        dataset, _, index = setup
        service = make_service(index)
        plain = service.recommend(8, k=5)
        profile = np.ones(dataset.n_price_levels)
        steered = service.recommend(8, k=5, price_profile=profile)
        # Warm users are answered by the full model; the profile is ignored
        # and the request shares the unprofiled cache entry.
        assert steered.cached
        np.testing.assert_array_equal(steered.items, plain.items)

    def test_invalid_profile_rejected(self, setup):
        dataset, _, index = setup
        service = make_service(index)
        with pytest.raises(ValueError, match="shape"):
            service.recommend(10**9, price_profile=np.ones(dataset.n_price_levels + 1))


class TestMicroBatching:
    def test_submit_defers_until_flush(self, setup):
        _, _, index = setup
        service = make_service(index, max_batch_size=100)
        pending = [service.submit(user) for user in range(5)]
        assert service.queue_depth == 5
        assert not any(p.done for p in pending)
        resolved = service.flush()
        assert resolved == 5
        assert all(p.done for p in pending)
        assert service.queue_depth == 0

    def test_queue_auto_flushes_at_capacity(self, setup):
        _, _, index = setup
        service = make_service(index, max_batch_size=3, cache_capacity=0)
        pending = [service.submit(user) for user in range(3)]
        assert all(p.done for p in pending)
        assert service.queue_depth == 0

    def test_result_forces_flush(self, setup):
        _, _, index = setup
        service = make_service(index, max_batch_size=100)
        pending = service.submit(2)
        assert not pending.done
        rec = pending.result()
        assert pending.done and len(rec.items) > 0

    def test_mixed_batch_routes_each_request(self, setup):
        _, _, index = setup
        service = make_service(index, max_batch_size=100)
        warm = service.submit(0)
        cold = service.submit(index.n_users + 7)
        service.flush()
        assert warm.result().source == WARM
        assert cold.result().source == COLD

    def test_one_matmul_batch_for_identical_params(self, setup):
        _, _, index = setup
        service = make_service(index, max_batch_size=100, cache_capacity=0)
        for user in range(6):
            service.submit(user, k=4)
        service.flush()
        assert service.stats.batches == 1

    def test_cold_requests_share_one_scoring_pass(self, setup):
        _, _, index = setup
        service = make_service(index, max_batch_size=100, cache_capacity=0)
        for offset in range(5):
            service.submit(index.n_users + offset, k=4)
        service.flush()
        assert service.stats.batches == 1
        assert service.stats.cold_requests == 5

    def test_invalid_request_fails_at_submit_not_at_flush(self, setup):
        dataset, _, index = setup
        service = make_service(index, max_batch_size=100)
        good = service.submit(0)
        with pytest.raises(ValueError, match="shape"):
            service.submit(10**9, price_profile=np.ones(dataset.n_price_levels + 1))
        # The well-formed request is unaffected by the rejected one.
        assert len(good.result().items) > 0

    def test_group_failure_does_not_orphan_other_groups(self, setup, monkeypatch):
        _, _, index = setup
        service = make_service(index, max_batch_size=100, cache_capacity=0)
        poisoned = service.submit(0, k=3, exclude_train=False)
        healthy = service.submit(1, k=4)  # other exclusion -> other warm group
        also_poisoned = service.submit(2, k=5, exclude_train=False)

        real_topk_rows = service.engine.topk_rows

        def exploding_topk_rows(users, ks, row_filters, exclude_train=True, **kwargs):
            if not exclude_train:
                raise RuntimeError("index shard offline")
            return real_topk_rows(users, ks, row_filters, exclude_train=exclude_train, **kwargs)

        monkeypatch.setattr(service.engine, "topk_rows", exploding_topk_rows)
        service.flush()
        assert len(healthy.result().items) == 4
        for pending in (poisoned, also_poisoned):
            with pytest.raises(RuntimeError, match="shard offline"):
                pending.result()


class TestCache:
    def test_second_lookup_hits_cache(self, setup):
        _, _, index = setup
        service = make_service(index)
        first = service.recommend(3)
        again = service.recommend(3)
        assert not first.cached and again.cached
        np.testing.assert_array_equal(first.items, again.items)
        assert service.stats.cache_hits == 1

    def test_different_k_misses(self, setup):
        _, _, index = setup
        service = make_service(index)
        service.recommend(3, k=5)
        assert not service.recommend(3, k=6).cached

    def test_filters_partition_the_cache(self, setup):
        _, _, index = setup
        service = make_service(index)
        plain = service.recommend(3, k=5)
        banded = service.recommend(3, k=5, filters=[PriceBandFilter(0, 1)])
        assert not banded.cached
        hit = service.recommend(3, k=5, filters=[PriceBandFilter(0, 1)])
        assert hit.cached
        np.testing.assert_array_equal(hit.items, banded.items)
        assert plain.items.shape != banded.items.shape or (plain.items != banded.items).any()

    def test_invalidate_user(self, setup):
        _, _, index = setup
        service = make_service(index)
        service.recommend(4)
        service.recommend(5)
        evicted = service.invalidate(user=4)
        assert evicted == 1
        assert service.recommend(5).cached  # untouched user stays cached
        assert not service.recommend(4).cached

    def test_invalidate_all(self, setup):
        _, _, index = setup
        service = make_service(index)
        service.recommend(1)
        service.recommend(2)
        assert service.invalidate() == 2
        assert service.cache_size == 0
        assert not service.recommend(1).cached

    def test_lru_eviction(self, setup):
        _, _, index = setup
        service = make_service(index, cache_capacity=2)
        service.recommend(1)
        service.recommend(2)
        service.recommend(3)  # evicts user 1
        assert service.cache_size == 2
        assert not service.recommend(1).cached

    def test_answers_are_read_only_and_cannot_corrupt_cache(self, setup):
        """A miss, a hit and a degraded stale answer all refuse an in-place
        write; later hits stay bit-identical; a copy is the caller's own."""
        _, _, index = setup
        plan = FaultPlan([FaultSpec(SCORER_ERROR, times=(1,))])
        service = make_service(
            index, resilience=ResilienceConfig(retries=0, backoff_s=0.0), fault_plan=plan,
        )
        first = service.recommend(9)
        expected = (first.items.tobytes(), first.scores.tobytes())
        # Capacity 0 for one enqueue stands in for a request queued before a
        # concurrent flush cached its key; the scorer then fails its batch.
        service.cache_capacity = 0
        queued = service.enqueue(9)
        service.cache_capacity = 1024
        service.flush()
        stale = queued.result()
        assert isinstance(stale, DegradedResponse) and stale.stage == "error_cache"
        hit = service.recommend(9)
        assert hit.cached
        for answer in (first, hit, stale):
            for array in (answer.items, answer.scores):
                with pytest.raises(ValueError, match="read-only"):
                    array[:] = -1
        again = service.recommend(9)
        assert (again.items.tobytes(), again.scores.tobytes()) == expected
        own = np.array(again.items)
        own[:] = -2  # the caller's copy is writeable and detached
        assert service.recommend(9).items.tobytes() == expected[0]

    def test_answers_pickle_round_trip(self, setup):
        _, _, index = setup
        service = make_service(index)
        service.recommend(9)
        hit = service.recommend(9)
        clone = pickle.loads(pickle.dumps(hit))
        assert type(clone) is type(hit) and clone.cached and clone.user == hit.user
        np.testing.assert_array_equal(clone.items, hit.items)
        np.testing.assert_array_equal(clone.scores, hit.scores)

    def test_cache_disabled(self, setup):
        _, _, index = setup
        service = make_service(index, cache_capacity=0)
        service.recommend(1)
        assert not service.recommend(1).cached
        assert service.cache_size == 0


class TestStats:
    def test_counters_track_requests(self, setup):
        _, _, index = setup
        service = make_service(index)
        service.recommend(0)
        service.recommend(0)  # cache hit
        service.recommend(index.n_users + 1)
        snap = service.stats.snapshot()
        assert snap["requests"] == 3
        assert snap["warm_requests"] == 2
        assert snap["cold_requests"] == 1
        assert snap["cache_hits"] == 1
        assert snap["qps"] > 0

    def test_latency_percentiles_with_fake_clock(self, setup):
        _, _, index = setup
        ticks = iter(np.arange(0, 1000, 0.5))
        service = make_service(index, clock=lambda: float(next(ticks)))
        service.recommend(0)
        snap = service.stats.snapshot()
        assert snap["latency_p50_ms"] > 0
        assert snap["latency_p99_ms"] >= snap["latency_p50_ms"]
