"""Retrieval engine: parity with the offline evaluator and the per-row oracle."""

import numpy as np
import pytest

from repro.core import pup_full
from repro.core.base import ScoreBranch
from repro.data import SyntheticConfig, generate
from repro.eval import masked_topk, topk_rankings
from repro.nn import precision
from repro.serving import (
    CategoryFilter,
    DenyListFilter,
    EmbeddingIndex,
    PriceBandFilter,
    RetrievalEngine,
    export_index,
)


CONFIG = SyntheticConfig(
    n_users=50, n_items=90, n_categories=4, n_price_levels=4,
    interactions_per_user=8, seed=31,
)


@pytest.fixture(scope="module")
def setup():
    dataset = generate(CONFIG)[0]
    model = pup_full(dataset, global_dim=12, category_dim=6, rng=np.random.default_rng(2))
    model.eval()
    index = export_index(model, dataset)
    return dataset, model, index


@pytest.fixture(scope="module")
def f32_index():
    dataset = generate(CONFIG)[0]
    with precision("float32"):
        model = pup_full(dataset, global_dim=12, category_dim=6, rng=np.random.default_rng(2))
    model.eval()
    return export_index(model, dataset)


class TestEvalParity:
    def test_topk_matches_offline_evaluator_bit_identically(self, setup):
        """Acceptance criterion: serving ids == eval ids for warm users."""
        dataset, model, index = setup
        users = list(range(dataset.n_users))
        engine = RetrievalEngine(index)
        expected = topk_rankings(model, dataset, users, k=10)
        results = engine.topk(users, k=10, exclude_train=True)
        for user, result in zip(users, results):
            np.testing.assert_array_equal(result.items, expected[user])

    def test_topk_without_exclusion_matches_evaluator(self, setup):
        dataset, model, index = setup
        users = [0, 3, 17]
        engine = RetrievalEngine(index)
        expected = topk_rankings(model, dataset, users, k=5, exclude_train=False)
        results = engine.topk(users, k=5, exclude_train=False)
        for user, result in zip(users, results):
            np.testing.assert_array_equal(result.items, expected[user])

    def test_scores_returned_are_model_scores(self, setup):
        dataset, model, index = setup
        engine = RetrievalEngine(index)
        [result] = engine.topk([4], k=5, exclude_train=False)
        # a lone request scores as it would inside any batch of two or more
        full = model.predict_scores(np.arange(16))[4]
        np.testing.assert_array_equal(result.scores, full[result.items])


def oracle_topk(index, users, k, exclude_train, mask):
    """Per-row reference: ``masked_topk`` over the single-matmul score rows."""
    scores = index.score(np.asarray(users))
    candidates = None if mask is None else np.flatnonzero(mask)
    results = []
    for row, user in enumerate(users):
        exclude = index.excluded_items(user) if exclude_train else None
        top = masked_topk(
            scores[row], k, exclude_items=exclude, candidate_items=candidates,
            drop_masked=True,
        )
        results.append((top, scores[row, top]))
    return results


def integer_tie_index():
    """20 items scoring 3,2,1,0 repeating for every user: exact ties that
    straddle every shard boundary.  User 0 bought tied items 0, 8 and 9."""
    values = np.tile(np.array([3.0, 2.0, 1.0, 0.0]), 5)
    return EmbeddingIndex(
        [ScoreBranch(user=np.ones((3, 1)), item=values[:, None])],
        item_categories=np.zeros(20, dtype=np.int64),
        item_price_levels=np.arange(20) % 2,
        n_price_levels=2,
        n_categories=1,
        exclude_indptr=np.array([0, 3, 3, 4]),
        exclude_indices=np.array([0, 8, 9, 4]),
        item_popularity=np.ones(20),
    )


class TestExactPathDifferential:
    """One kernel, every shard layout: the engine against the per-row oracle."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("block", [None, 32, 7, 1])
    @pytest.mark.parametrize("filtered", [False, True])
    @pytest.mark.parametrize("exclude_train", [False, True])
    def test_engine_matches_oracle(
        self, setup, f32_index, item_block, dtype, block, filtered, exclude_train
    ):
        index = setup[2] if dtype == "float64" else f32_index
        if block is not None:
            item_block(block)
        assert index.score(np.array([0])).dtype == np.dtype(dtype)
        users = list(range(0, index.n_users, 3))
        filters = [PriceBandFilter(1, 3), CategoryFilter([0, 1, 2])] if filtered else []
        engine = RetrievalEngine(index)
        expected = oracle_topk(index, users, 12, exclude_train, engine.candidate_mask(filters))
        got = engine.topk(users, k=12, exclude_train=exclude_train, filters=filters)
        assert len(got) == len(users)
        for result, (items, scores) in zip(got, expected):
            assert result.scores.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(result.items, items)
            if block == 1:
                # BLAS takes a different kernel for (B, d) @ (d, 1) than for
                # a full gemm, so scores may drift in the last bits.
                rtol = 1e-12 if dtype == "float64" else 1e-5
                np.testing.assert_allclose(result.scores, scores, rtol=rtol)
            else:
                np.testing.assert_array_equal(result.scores, scores)

    @pytest.mark.parametrize("block", [20, 8, 5, 3, 1])
    @pytest.mark.parametrize("filtered", [False, True])
    @pytest.mark.parametrize("exclude_train", [False, True])
    def test_integer_ties_across_shard_boundaries(self, item_block, block, filtered, exclude_train):
        """Integer scores are exact under any matmul shape, so even block
        size 1 must agree bitwise — ties resolved by ascending item id —
        and ``k`` past the allowed pool must shrink the list, never pad it."""
        index = integer_tie_index()
        users = [0, 1, 2]
        filters = [PriceBandFilter(0, 0)] if filtered else []
        item_block(block)
        engine = RetrievalEngine(index)
        mask = engine.candidate_mask(filters)
        for k in (6, 13, 50):
            expected = oracle_topk(index, users, k, exclude_train, mask)
            got = engine.topk(users, k=k, exclude_train=exclude_train, filters=filters)
            for user, result, (items, scores) in zip(users, got, expected):
                np.testing.assert_array_equal(result.items, items)
                np.testing.assert_array_equal(result.scores, scores)
                allowed = np.ones(20, dtype=bool) if mask is None else mask.copy()
                if exclude_train:
                    allowed[index.excluded_items(user)] = False
                assert len(result.items) == min(k, allowed.sum())


class TestMasksAndFilters:
    def test_exclusion_removes_train_items(self, setup):
        dataset, _, index = setup
        engine = RetrievalEngine(index)
        train_pos = dataset.train_positive_sets()
        users = [u for u in range(dataset.n_users) if train_pos.get(u)][:10]
        for user, result in zip(users, engine.topk(users, k=20)):
            assert not set(result.items.tolist()) & train_pos[user]

    def test_price_band_filter_restricts_levels(self, setup):
        dataset, _, index = setup
        engine = RetrievalEngine(index)
        [result] = engine.topk([2], k=10, filters=[PriceBandFilter(0, 1)])
        assert len(result.items) > 0
        assert (dataset.item_price_levels[result.items] <= 1).all()

    def test_deny_list_filter(self, setup):
        dataset, _, index = setup
        engine = RetrievalEngine(index)
        [unfiltered] = engine.topk([6], k=5)
        deny = unfiltered.items[:2].tolist()
        [result] = engine.topk([6], k=5, filters=[DenyListFilter(deny)])
        assert not set(deny) & set(result.items.tolist())

    def test_drop_masked_never_returns_excluded(self, setup):
        dataset, _, index = setup
        engine = RetrievalEngine(index)
        # k larger than the allowed pool: result shrinks instead of leaking.
        allowed = np.flatnonzero(dataset.item_price_levels == 0)
        [result] = engine.topk([1], k=dataset.n_items, filters=[PriceBandFilter(0, 0)])
        assert set(result.items.tolist()) <= set(allowed.tolist())

    def test_mask_cache_reused(self, setup):
        _, _, index = setup
        engine = RetrievalEngine(index)
        filters = [PriceBandFilter(0, 2)]
        first = engine.candidate_mask(filters)
        second = engine.candidate_mask([PriceBandFilter(0, 2)])
        assert first is second
        engine.invalidate_masks()
        assert engine.candidate_mask(filters) is not first

    def test_mask_cache_is_bounded(self, setup):
        _, _, index = setup
        engine = RetrievalEngine(index, mask_cache_capacity=3)
        for low in range(10):
            engine.candidate_mask([PriceBandFilter(0, low)])
        assert len(engine._mask_cache) == 3

    def test_out_of_range_user_rejected(self, setup):
        _, _, index = setup
        engine = RetrievalEngine(index)
        with pytest.raises(ValueError, match="cold-start"):
            engine.topk([index.n_users], k=5)
