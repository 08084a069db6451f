"""Thread-safety satellites: concurrent submit/flush, timeouts, isolation.

The gateway's whole premise is that ``RecommenderService`` can be driven
from many threads at once; these tests pin the service-level contracts it
relies on, without a gateway in the picture:

* concurrent ``submit()``/``flush()`` never loses, duplicates, or
  cross-wires a request (every caller gets *their* user's answer);
* ``result(timeout=)`` raises the typed :class:`ResultTimeout` instead of
  blocking forever when nothing flushes;
* a request that fails inside a batch fails alone — its
  ``result()`` raises, its batch-mates still get answers;
* ``recommend_many(price_profiles=)`` steers cold users per-request.
"""

import threading

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.serving import (
    COLD,
    WARM,
    RecommenderService,
    ResultTimeout,
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


class TestConcurrentSubmitFlush:
    def test_many_threads_each_get_their_own_answer(self, setup):
        """The multi-threaded regression for the unsynchronized queue:
        before the lock, racing appends/swaps could drop requests (a
        result() that never resolves) or mis-batch them."""
        _, _, index = setup
        service = RecommenderService(index, default_k=8, max_batch_size=16, cache_capacity=0)
        expected = {
            user: RecommenderService(index, default_k=8).recommend(user).items
            for user in range(index.n_users)
        }
        n_threads, per_thread = 8, 50
        barrier = threading.Barrier(n_threads)
        failures = []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            barrier.wait()
            for _ in range(per_thread):
                user = int(rng.integers(0, index.n_users))
                pending = service.submit(user)
                # Racing flushes: ours may see an empty queue because
                # another thread's flush already took the request — the
                # timed wait below then covers that flush finishing.
                service.flush()
                try:
                    rec = pending.result(timeout=10.0)
                except Exception as exc:  # noqa: BLE001 - recorded for the assert
                    failures.append((user, repr(exc)))
                    continue
                if rec.user != user or not np.array_equal(rec.items, expected[user]):
                    failures.append((user, "wrong answer"))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures[:5]
        assert service.queue_depth == 0
        assert service.stats.requests == n_threads * per_thread

    def test_concurrent_flushes_cover_disjoint_snapshots(self, setup):
        """Racing flushes must partition the queue: every pending resolves
        exactly once, total resolved == total submitted."""
        _, _, index = setup
        service = RecommenderService(index, default_k=5, max_batch_size=10**9, cache_capacity=0)
        users = [u % index.n_users for u in range(200)]
        pendings = [service.submit(u) for u in users]
        counts = []
        barrier = threading.Barrier(4)

        def flusher() -> None:
            barrier.wait()
            counts.append(service.flush())

        threads = [threading.Thread(target=flusher) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(counts) == len(users)
        assert all(p.done for p in pendings)

    def test_cache_survives_concurrent_readers_and_writers(self, setup):
        _, _, index = setup
        service = RecommenderService(index, default_k=5, cache_capacity=8)
        errors = []

        def hammer(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(150):
                    user = int(rng.integers(0, index.n_users))
                    service.recommend(user)
                    if rng.random() < 0.1:
                        service.invalidate(user)
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[:3]
        assert service.cache_size <= 8


class TestResultTimeout:
    def test_timeout_raises_typed_error_when_nothing_flushes(self, setup):
        _, _, index = setup
        service = RecommenderService(index, default_k=5, max_batch_size=10**9)
        pending = service.submit(0)
        with pytest.raises(ResultTimeout):
            pending.result(timeout=0.02)
        assert isinstance(ResultTimeout("x"), TimeoutError)  # typed contract
        # the request is still queued and still answerable
        service.flush()
        assert pending.result(timeout=1.0).user == 0

    def test_timeout_none_still_forces_a_flush(self, setup):
        _, _, index = setup
        service = RecommenderService(index, default_k=5, max_batch_size=10**9)
        pending = service.submit(1)
        assert pending.result().user == 1  # no explicit flush needed

    def test_wait_resolves_without_flushing(self, setup):
        _, _, index = setup
        service = RecommenderService(index, default_k=5, max_batch_size=10**9)
        pending = service.submit(2)
        assert pending.wait(timeout=0.01) is False
        service.flush()
        assert pending.wait(timeout=1.0) is True


class TestFailureIsolation:
    def test_failed_group_does_not_poison_other_groups(self, setup):
        """The warm lane blowing up fails *its* requests via result();
        the cold lane of the same flush still succeeds."""
        _, _, index = setup
        service = RecommenderService(index, default_k=5, max_batch_size=10**9, cache_capacity=0)
        boom = RuntimeError("injected failure")

        def exploding_topk_rows(*args, **kwargs):
            raise boom

        service.engine.topk_rows = exploding_topk_rows
        doomed = [service.submit(0, k=7), service.submit(1, k=5)]
        survivor = service.submit(index.n_users + 500)
        service.flush()
        for pending in doomed:
            with pytest.raises(RuntimeError, match="injected failure"):
                pending.result(timeout=1.0)
        rec = survivor.result(timeout=1.0)
        assert rec.source == COLD and len(rec.items) == 5

    def test_single_cold_request_failure_is_isolated(self, setup):
        """Per-request isolation inside one cold profile group: a request
        whose per-user ranking throws fails alone."""
        _, _, index = setup
        service = RecommenderService(index, default_k=5, max_batch_size=10**9, cache_capacity=0)
        cold_a, cold_b = index.n_users + 500, index.n_users + 501
        real = service.engine.topk_from_scores
        calls = {"n": 0}

        def flaky(scores, k, exclude_items=None, filters=()):
            calls["n"] += 1
            if calls["n"] == 1:  # first cold request in the group fails
                raise ValueError("ranker hiccup")
            return real(scores, k=k, exclude_items=exclude_items, filters=filters)

        service.engine.topk_from_scores = flaky
        first = service.submit(cold_a)
        second = service.submit(cold_b)
        service.flush()
        with pytest.raises(ValueError, match="ranker hiccup"):
            first.result(timeout=1.0)
        rec = second.result(timeout=1.0)
        assert rec.source == COLD and len(rec.items) == 5


class TestRecommendManyPriceProfiles:
    def test_shared_profile_steers_every_cold_user(self, setup):
        dataset, _, index = setup
        service = RecommenderService(index, default_k=5, cache_capacity=0)
        cheap = np.zeros(dataset.n_price_levels)
        cheap[0] = 1.0
        cold_users = [index.n_users + 100 + i for i in range(4)]
        recs = service.recommend_many(cold_users, price_profiles=cheap)
        for rec in recs:
            assert rec.source == COLD
            assert (dataset.item_price_levels[rec.items] == 0).all()

    def test_per_user_profiles_apply_individually(self, setup):
        dataset, _, index = setup
        service = RecommenderService(index, default_k=5, cache_capacity=0)
        cheap = np.zeros(dataset.n_price_levels)
        cheap[0] = 1.0
        pricey = np.zeros(dataset.n_price_levels)
        pricey[-1] = 1.0
        users = [0, index.n_users + 100, index.n_users + 101]
        recs = service.recommend_many(users, price_profiles=[None, cheap, pricey])
        assert recs[0].source == WARM  # warm users ignore profiles
        assert (dataset.item_price_levels[recs[1].items] == 0).all()
        assert (
            dataset.item_price_levels[recs[2].items] == dataset.n_price_levels - 1
        ).all()

    def test_length_mismatch_rejected(self, setup):
        _, _, index = setup
        service = RecommenderService(index, default_k=5)
        with pytest.raises(ValueError, match="price_profiles has 1 entries"):
            service.recommend_many([1, 2], price_profiles=[None])

    def test_profiles_do_not_change_warm_results(self, setup):
        _, _, index = setup
        service = RecommenderService(index, default_k=6, cache_capacity=0)
        users = list(range(0, index.n_users, 3))
        plain = service.recommend_many(users)
        shared = np.ones(index.n_price_levels) / index.n_price_levels
        steered = service.recommend_many(users, price_profiles=shared)
        for a, b in zip(plain, steered):
            if a.source == WARM:
                np.testing.assert_array_equal(a.items, b.items)

