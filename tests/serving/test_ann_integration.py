"""ANN wired through RetrievalEngine / RecommenderService, + dtype fix."""

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.nn import precision
from repro.serving import (
    PriceBandFilter,
    RecommenderService,
    RetrievalEngine,
    build_ivf,
    export_index,
)


@pytest.fixture(scope="module")
def setup():
    config = SyntheticConfig(
        n_users=60, n_items=220, n_categories=5, n_price_levels=4,
        interactions_per_user=8, seed=17,
    )
    dataset = generate(config)[0]
    model = pup_full(dataset, global_dim=12, category_dim=6, rng=np.random.default_rng(3))
    model.eval()
    index = export_index(model, dataset)
    ivf = build_ivf(index, n_lists=10, nprobe=10, seed=0)  # full probe: exact
    return dataset, index, ivf


class TestEngineRouting:
    def test_engine_with_full_probe_ann_matches_exact_engine(self, setup):
        _, index, ivf = setup
        users = list(range(40))
        exact = RetrievalEngine(index).topk(users, k=12)
        approx = RetrievalEngine(index, ann=ivf).topk(users, k=12)
        for a, b in zip(exact, approx):
            np.testing.assert_array_equal(a.items, b.items)

    def test_use_ann_false_forces_exact_path(self, setup):
        _, index, ivf = setup
        low = build_ivf(index, n_lists=10, nprobe=1, seed=0)
        engine = RetrievalEngine(index, ann=low)
        exact = RetrievalEngine(index).topk([0, 1, 2], k=10)
        forced = engine.topk([0, 1, 2], k=10, use_ann=False)
        for a, b in zip(exact, forced):
            np.testing.assert_array_equal(a.items, b.items)
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_use_ann_true_without_index_raises(self, setup):
        _, index, _ = setup
        with pytest.raises(ValueError, match="no ANN index"):
            RetrievalEngine(index).topk([0], k=5, use_ann=True)

    def test_mismatched_catalog_rejected(self, setup):
        dataset, index, _ = setup
        other_config = SyntheticConfig(
            n_users=30, n_items=80, n_categories=4, n_price_levels=4,
            interactions_per_user=5, seed=1,
        )
        other_dataset = generate(other_config)[0]
        other_model = pup_full(
            other_dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(0)
        )
        other_model.eval()
        other = build_ivf(export_index(other_model, other_dataset), n_lists=4, seed=0)
        with pytest.raises(ValueError, match="rebuild the ann index"):
            RetrievalEngine(index, ann=other)

    def test_filters_apply_at_rerank(self, setup):
        _, index, ivf = setup
        engine = RetrievalEngine(index, ann=ivf)
        band = PriceBandFilter(0, 1)
        exact = RetrievalEngine(index).topk(list(range(20)), k=8, filters=[band])
        approx = engine.topk(list(range(20)), k=8, filters=[band])
        for a, b in zip(exact, approx):
            np.testing.assert_array_equal(a.items, b.items)


class TestServiceRouting:
    def test_service_with_full_probe_ann_serves_exact_results(self, setup):
        _, index, ivf = setup
        exact = RecommenderService(index, default_k=10, cache_capacity=0)
        approx = RecommenderService(index, default_k=10, cache_capacity=0, ann=ivf)
        assert approx.ann is ivf
        for user in range(15):
            if not index.is_warm(user):
                continue
            np.testing.assert_array_equal(
                exact.recommend(user).items, approx.recommend(user).items
            )

    def test_cold_users_still_route_through_fallback(self, setup):
        _, index, ivf = setup
        service = RecommenderService(index, default_k=5, ann=ivf)
        result = service.recommend(index.n_users + 99)
        assert result.source == "cold_fallback"
        assert len(result.items) == 5


class TestDtypePreservation:
    """Satellite regression: f32 indexes never pay an f64 copy when serving."""

    @pytest.fixture(scope="class")
    def f32_index(self):
        config = SyntheticConfig(
            n_users=40, n_items=120, n_categories=4, n_price_levels=4,
            interactions_per_user=6, seed=23,
        )
        dataset = generate(config)[0]
        with precision("float32"):
            model = pup_full(
                dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(1)
            )
        model.eval()
        return export_index(model, dataset)

    def test_topk_from_scores_preserves_float32(self, f32_index):
        engine = RetrievalEngine(f32_index)
        scores = np.random.default_rng(0).normal(size=f32_index.n_items).astype(np.float32)
        result = engine.topk_from_scores(scores, k=10)
        assert result.scores.dtype == np.float32

    def test_topk_from_scores_coerces_non_float(self, f32_index):
        engine = RetrievalEngine(f32_index)
        result = engine.topk_from_scores(np.arange(f32_index.n_items), k=5)
        assert result.scores.dtype == np.float64

    def test_engine_topk_stays_float32(self, f32_index):
        engine = RetrievalEngine(f32_index)
        for result in engine.topk([0, 1, 2], k=8):
            assert result.scores.dtype == np.float32

    def test_ann_search_stays_float32(self, f32_index):
        ivf = build_ivf(f32_index, n_lists=6, nprobe=6, seed=0)
        _, scores = ivf.search(np.arange(5), 8, scorer="exact")
        assert scores.dtype == np.float32
        engine = RetrievalEngine(f32_index, ann=ivf)
        for result in engine.topk([0, 1], k=6):
            assert result.scores.dtype == np.float32
