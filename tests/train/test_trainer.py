"""Tests for TrainConfig and the BPR training loop."""

import numpy as np
import pytest

from repro.baselines import BPRMF, ItemPop, PaDQ
from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.train import TrainConfig, Trainer, TrainResult, train_model


@pytest.fixture(scope="module")
def dataset():
    config = SyntheticConfig(
        n_users=40, n_items=50, n_categories=4, n_price_levels=3,
        interactions_per_user=10, seed=31,
    )
    return generate(config)[0]


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epochs=0),
            dict(batch_size=0),
            dict(learning_rate=0.0),
            dict(l2_weight=-1.0),
            dict(negative_rate=0),
            dict(eval_every=-1),
            dict(early_stop_patience=2, eval_every=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestTrainer:
    def test_loss_decreases(self, dataset):
        model = BPRMF(dataset, dim=16, rng=np.random.default_rng(0))
        result = train_model(model, dataset, TrainConfig(epochs=6, lr_milestones=(4,), seed=0))
        assert result.epochs_run == 6
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_non_trainable_skipped(self, dataset):
        result = train_model(ItemPop(dataset), dataset, TrainConfig(epochs=5))
        assert result.epochs_run == 0
        assert result.epoch_losses == []

    def test_deterministic_given_seed(self, dataset):
        r1 = train_model(
            BPRMF(dataset, dim=8, rng=np.random.default_rng(1)),
            dataset,
            TrainConfig(epochs=3, seed=5),
        )
        r2 = train_model(
            BPRMF(dataset, dim=8, rng=np.random.default_rng(1)),
            dataset,
            TrainConfig(epochs=3, seed=5),
        )
        np.testing.assert_allclose(r1.epoch_losses, r2.epoch_losses)

    def test_validation_tracking(self, dataset):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        config = TrainConfig(epochs=4, eval_every=2, eval_k=10)
        result = train_model(model, dataset, config)
        assert len(result.validation_history) == 2
        assert result.best_epoch in (2, 4)
        assert result.best_metric >= 0

    def test_early_stopping(self, dataset):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        config = TrainConfig(
            epochs=50, eval_every=1, eval_k=10, early_stop_patience=2, learning_rate=1e-5
        )
        result = train_model(model, dataset, config)
        assert result.epochs_run < 50

    def test_best_checkpoint_restored(self, dataset):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        config = TrainConfig(epochs=4, eval_every=1, eval_k=10)
        trainer = Trainer(model, dataset, config)
        result = trainer.fit()
        # After fit, evaluating at the restored checkpoint reproduces best.
        from repro.eval import evaluate

        metrics = evaluate(model, dataset, split="validation", ks=(10,))
        assert metrics["Recall@10"] == pytest.approx(result.best_metric)

    def test_auxiliary_loss_used(self, dataset):
        """PaDQ's CMF terms must reduce during training."""
        model = PaDQ(dataset, dim=8, rng=np.random.default_rng(0), price_weight=1.0)
        users, items = np.arange(10), np.arange(10)
        before = model.auxiliary_loss(users, items).item()
        train_model(model, dataset, TrainConfig(epochs=5, seed=0))
        after = model.auxiliary_loss(users, items).item()
        assert after < before

    def test_pup_trains_end_to_end(self, dataset):
        model = pup_full(
            dataset, global_dim=12, category_dim=4, rng=np.random.default_rng(0), dropout=0.0
        )
        result = train_model(model, dataset, TrainConfig(epochs=4, seed=0))
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_model_left_in_eval_mode(self, dataset):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        train_model(model, dataset, TrainConfig(epochs=2))
        assert not model.training

    @pytest.mark.parametrize("eval_every", (0, 1))
    def test_fitted_model_holds_no_gradients(self, dataset, eval_every):
        model = pup_full(dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(0))
        train_model(model, dataset, TrainConfig(epochs=2, eval_every=eval_every))
        assert [name for name, param in model.named_parameters() if param.grad is not None] == []

    def test_final_loss_property(self):
        result = TrainResult()
        with pytest.raises(ValueError):
            __ = result.final_loss
        result.epoch_losses.append(0.5)
        assert result.final_loss == 0.5

    def test_l2_zero_allowed(self, dataset):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        result = train_model(model, dataset, TrainConfig(epochs=2, l2_weight=0.0))
        assert result.epochs_run == 2
