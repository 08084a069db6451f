"""End-to-end integration tests across data -> graph -> model -> train -> eval."""

import numpy as np
import pytest

from repro.baselines import BPRMF, ItemPop
from repro.core import pup_full, pup_with_price, pup_without_price_and_category
from repro.data import SyntheticConfig, generate
from repro.eval import build_cold_start_task, evaluate, evaluate_cold_start
from repro.train import TrainConfig, train_model


@pytest.fixture(scope="module")
def price_heavy_dataset():
    """A dataset where price is the dominant signal (strong planted effect).

    ``item_turnover`` puts cold items into the test split — the regime where
    explicit price representations must generalize (see docs/experiments.md).
    """
    config = SyntheticConfig(
        n_users=120,
        n_items=220,
        n_categories=6,
        n_price_levels=6,
        interactions_per_user=12,
        price_sensitivity=5.0,
        price_match_width=0.1,
        latent_dim=4,
        item_turnover=0.6,
        seed=77,
    )
    return generate(config)[0]


@pytest.fixture(scope="module")
def quick_config():
    return TrainConfig(epochs=15, lr_milestones=(8, 12), batch_size=512, seed=0)


class TestPipeline:
    def test_full_pipeline_runs_and_beats_popularity(self, price_heavy_dataset, quick_config):
        dataset = price_heavy_dataset
        model = pup_full(dataset, global_dim=24, category_dim=8, rng=np.random.default_rng(0))
        result = train_model(model, dataset, quick_config)
        assert result.final_loss < result.epoch_losses[0]

        pup_metrics = evaluate(model, dataset, ks=(20,))
        pop_metrics = evaluate(ItemPop(dataset), dataset, ks=(20,))
        assert pup_metrics["Recall@20"] > pop_metrics["Recall@20"]

    def test_learned_user_representations_are_price_aware(self, quick_config):
        """The paper's core mechanism, end-to-end: after training, a user's
        affinity to price-level nodes must recover the planted budget.  We
        check the Spearman correlation between ground-truth budgets and the
        expected price level under the learned user-price affinities."""
        config = SyntheticConfig(
            n_users=120,
            n_items=220,
            n_categories=6,
            n_price_levels=6,
            interactions_per_user=12,
            price_sensitivity=5.0,
            price_match_width=0.1,
            latent_dim=4,
            item_turnover=0.6,
            seed=77,
        )
        dataset, truth = generate(config)
        model = pup_with_price(
            dataset, global_dim=24, category_dim=8, rng=np.random.default_rng(0)
        )
        train_model(model, dataset, quick_config)

        table = model.global_encoder.propagate_inference()
        space = model.global_graph.space
        user_emb = table[: dataset.n_users]
        price_emb = table[space.price(np.arange(dataset.n_price_levels))]
        affinity = user_emb @ price_emb.T
        affinity -= affinity.max(axis=1, keepdims=True)
        weights = np.exp(affinity)
        weights /= weights.sum(axis=1, keepdims=True)
        expected_level = weights @ np.arange(dataset.n_price_levels)

        from scipy.stats import spearmanr

        rho, __ = spearmanr(truth.user_budget, expected_level)
        assert rho > 0.3, f"learned price affinity uncorrelated with budget (rho={rho:.3f})"

    def test_training_is_reproducible(self, price_heavy_dataset, quick_config):
        dataset = price_heavy_dataset

        def run():
            model = BPRMF(dataset, dim=16, rng=np.random.default_rng(3))
            train_model(model, dataset, quick_config)
            return evaluate(model, dataset, ks=(20,))

        np.testing.assert_allclose(
            list(run().values()), list(run().values()), rtol=0, atol=0
        )

    def test_state_dict_roundtrip_preserves_predictions(self, price_heavy_dataset, quick_config):
        dataset = price_heavy_dataset
        model = pup_full(dataset, global_dim=16, category_dim=8, rng=np.random.default_rng(0))
        train_model(model, dataset, quick_config)
        users = np.arange(10)
        before = model.predict_scores(users)

        clone = pup_full(dataset, global_dim=16, category_dim=8, rng=np.random.default_rng(99))
        clone.load_state_dict(model.state_dict())
        clone.eval()
        np.testing.assert_allclose(clone.predict_scores(users), before)

    def test_cold_start_protocols_run_end_to_end(self, price_heavy_dataset, quick_config):
        dataset = price_heavy_dataset
        task = build_cold_start_task(dataset)
        if not task.users:
            pytest.skip("no cold-start users in this draw")
        model = pup_full(dataset, global_dim=16, category_dim=8, rng=np.random.default_rng(0))
        train_model(model, dataset, quick_config)
        for protocol in ("CIR", "UCIR"):
            metrics = evaluate_cold_start(model, dataset, protocol=protocol, ks=(10,), task=task)
            assert 0.0 <= metrics["Recall@10"] <= 1.0
            assert 0.0 <= metrics["NDCG@10"] <= 1.0

    def test_metrics_within_bounds(self, price_heavy_dataset, quick_config):
        dataset = price_heavy_dataset
        model = BPRMF(dataset, dim=16, rng=np.random.default_rng(0))
        train_model(model, dataset, quick_config)
        metrics = evaluate(model, dataset, ks=(1, 10, 50))
        for name, value in metrics.items():
            assert 0.0 <= value <= 1.0, f"{name}={value} out of bounds"
        # Recall must be monotone in K.
        assert metrics["Recall@1"] <= metrics["Recall@10"] <= metrics["Recall@50"]
