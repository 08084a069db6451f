"""Satellite: cache correctness when a rebuilt index is hot-swapped in.

The failure mode being pinned: a service LRU holds top-K answers computed
from index A; index B (retrained / re-quantized) is swapped in; a request
that hits the stale cache would serve index-A items as if they were
index-B results.  ``swap_index`` must make that impossible.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import pup_full
from repro.scoring import ScoreBranch
from repro.data import SyntheticConfig, generate
from repro.serving import (
    PriceBandFilter,
    RecommenderService,
    build_ivf,
    export_index,
)
from repro.serving.index import EmbeddingIndex


@pytest.fixture()
def dataset():
    config = SyntheticConfig(
        n_users=50, n_items=130, n_categories=4, n_price_levels=4,
        interactions_per_user=7, seed=29,
    )
    return generate(config)[0]


@pytest.fixture()
def index(dataset):
    model = pup_full(dataset, global_dim=10, category_dim=4, rng=np.random.default_rng(2))
    model.eval()
    return export_index(model, dataset)


def rebuilt_index(index: EmbeddingIndex) -> EmbeddingIndex:
    """A plausible "retrained" index over the same catalog: negated factors
    (rankings invert, so any stale answer is detectably wrong)."""
    branches = [
        ScoreBranch(
            user=-branch.user,
            item=branch.item.copy(),
            item_const=None if branch.item_const is None else branch.item_const.copy(),
            user_const=None if branch.user_const is None else branch.user_const.copy(),
            weight=branch.weight,
        )
        for branch in index.branches
    ]
    return EmbeddingIndex(
        branches,
        item_categories=index.item_categories,
        item_price_levels=index.item_price_levels,
        n_price_levels=index.n_price_levels,
        n_categories=index.n_categories,
        exclude_indptr=index.exclude_indptr,
        exclude_indices=index.exclude_indices,
        item_popularity=index.item_popularity,
        model_name="rebuilt",
    )


def warm_user(index):
    return next(u for u in range(index.n_users) if index.is_warm(u))


class TestSwapInvalidatesResultCache:
    def test_no_stale_topk_after_swap(self, index):
        service = RecommenderService(index, default_k=10)
        user = warm_user(index)
        before = service.recommend(user)
        assert service.recommend(user).cached  # primed

        new_index = rebuilt_index(index)
        evicted = service.swap_index(new_index)
        assert evicted >= 1
        assert service.cache_size == 0

        after = service.recommend(user)
        assert not after.cached
        # the swapped factors invert rankings; identical lists would mean
        # the old index answered
        assert not np.array_equal(after.items, before.items)
        # and the answer must match a fresh service over the new index
        fresh = RecommenderService(new_index, default_k=10).recommend(user)
        np.testing.assert_array_equal(after.items, fresh.items)
        np.testing.assert_array_equal(after.scores, fresh.scores)

    def test_swap_flushes_inflight_queue_against_old_index(self, index):
        service = RecommenderService(index, default_k=8, max_batch_size=64)
        user = warm_user(index)
        pending = service.submit(user)
        expected = RecommenderService(index, default_k=8).recommend(user)
        service.swap_index(rebuilt_index(index))
        # the queued request was answered by the index it was submitted to
        np.testing.assert_array_equal(pending.result().items, expected.items)

    def test_filter_mask_cache_rebuilt_for_new_catalog(self, index, dataset):
        service = RecommenderService(index, default_k=6)
        user = warm_user(index)
        band = PriceBandFilter(0, 1)
        service.recommend(user, filters=[band])  # primes the engine mask cache
        old_engine = service.engine
        service.swap_index(rebuilt_index(index))
        assert service.engine is not old_engine  # masks cannot leak across
        result = service.recommend(user, filters=[band])
        levels = index.item_price_levels[result.items]
        assert np.all(levels <= 1)

    def test_swap_installs_and_removes_ann(self, index):
        service = RecommenderService(index, default_k=10, cache_capacity=8)
        user = warm_user(index)
        service.recommend(user)
        new_index = rebuilt_index(index)
        ann = build_ivf(new_index, n_lists=6, nprobe=6, seed=0)
        service.swap_index(new_index, ann=ann)
        assert service.ann is ann
        swapped = service.recommend(user)
        exact = RecommenderService(new_index, default_k=10).recommend(user)
        np.testing.assert_array_equal(swapped.items, exact.items)  # full probe
        service.swap_index(index)
        assert service.ann is None

    def test_per_user_invalidate_untouched_by_design(self, index):
        """invalidate(user) remains the surgical API; swap_index is the
        whole-index one — both leave no stale entry for their scope."""
        service = RecommenderService(index, default_k=5)
        warm = [u for u in range(index.n_users) if index.is_warm(u)][:2]
        for u in warm:
            service.recommend(u)
        assert service.invalidate(warm[0]) == 1
        assert service.recommend(warm[1]).cached


class TestReplacedStateIsFreedByReferenceCounting:
    """Nothing in a service points back at it: a dropped service, and the
    engine (with its ANN index) that ``swap_index`` replaces, are freed
    when their last reference goes, not when the cyclic collector runs."""

    def test_dropped_service_and_swapped_out_engine_die_without_gc(self, index):
        ann = build_ivf(index, n_lists=6, nprobe=6, seed=0)
        user = warm_user(index)
        gc.collect()
        gc.disable()
        try:
            service = RecommenderService(index, default_k=10, ann=ann)
            service.recommend(user)
            old_engine = weakref.ref(service.engine)
            service.swap_index(rebuilt_index(index))
            service.recommend(user)
            assert old_engine() is None
            dropped = weakref.ref(service)
            del service
            assert dropped() is None
        finally:
            gc.enable()
