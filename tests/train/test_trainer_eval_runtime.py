"""Satellite: one BatchRuntime reused across a fit's validation epochs."""

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.eval import evaluate
from repro.train import TrainConfig, Trainer
from repro.train import trainer as trainer_module


@pytest.fixture()
def dataset():
    config = SyntheticConfig(
        n_users=50, n_items=90, n_categories=4, n_price_levels=4,
        interactions_per_user=8, seed=37,
    )
    return generate(config)[0]


def small_config(**overrides):
    defaults = dict(
        epochs=3, batch_size=64, eval_every=1, eval_k=10,
        lr_milestones=(2,), seed=0,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestRuntimeReuse:
    def test_one_runtime_built_for_the_whole_fit(self, dataset, monkeypatch):
        built = []
        real_runtime = trainer_module.BatchRuntime

        class CountingRuntime(real_runtime):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(trainer_module, "BatchRuntime", CountingRuntime)
        model = pup_full(dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(0))
        trainer = Trainer(model, dataset, small_config())
        result = trainer.fit()
        assert result.epochs_run == 3 and len(result.validation_history) == 3
        assert len(built) == 1  # reused across all three validations
        assert trainer._eval_runtime is None  # closed at the end of fit

    def test_validation_metrics_identical_to_per_epoch_evaluate(self, dataset):
        """The reused-runtime path must change wall time only.

        Two identically-seeded fits: one through the runtime-reusing
        ``_validate``, one with a monkeypatched old-style per-call
        ``evaluate``.  Training trajectories are identical (validation does
        not touch the sampler RNG), so every epoch's metrics must match
        bit-for-bit.
        """
        model_a = pup_full(dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(1))
        trainer_a = Trainer(model_a, dataset, small_config())
        history_a = trainer_a.fit().validation_history

        model_b = pup_full(dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(1))
        trainer_b = Trainer(model_b, dataset, small_config())

        def old_style_validate():
            trainer_b.model.eval()
            return evaluate(
                trainer_b.model, dataset, split="validation",
                ks=(trainer_b.config.eval_k,),
            )

        trainer_b._validate = old_style_validate
        history_b = trainer_b.fit().validation_history

        assert history_a == history_b

    def test_runtime_closed_even_when_training_raises(self, dataset, monkeypatch):
        model = pup_full(dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(2))
        trainer = Trainer(model, dataset, small_config(epochs=3))
        closed = []
        original_validate = trainer._validate
        calls = {"n": 0}

        def failing_validate():
            calls["n"] += 1
            metrics = original_validate()
            runtime = trainer._eval_runtime
            if runtime is not None and not getattr(runtime, "_close_tracked", False):
                runtime._close_tracked = True
                original_close = runtime.close

                def tracking_close():
                    closed.append(True)
                    original_close()

                runtime.close = tracking_close
            if calls["n"] == 2:
                raise RuntimeError("boom")
            return metrics

        trainer._validate = failing_validate
        with pytest.raises(RuntimeError, match="boom"):
            trainer.fit()
        assert closed == [True]
        assert trainer._eval_runtime is None

    def test_thread_pool_validation_matches_serial(self, dataset, item_block):
        serial = pup_full(dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(3))
        threaded = pup_full(dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(3))
        history_serial = Trainer(serial, dataset, small_config()).fit().validation_history
        item_block(45)  # the threaded fit validates in 2 shards of 45 items
        history_threaded = Trainer(
            threaded, dataset, small_config(eval_workers=2, eval_mode="thread")
        ).fit().validation_history
        assert history_serial == history_threaded

    def test_non_factorizable_models_fall_back(self, dataset):
        from repro.baselines import DeepFM

        model = DeepFM(dataset, dim=8, hidden=(16,), rng=np.random.default_rng(0))
        trainer = Trainer(model, dataset, small_config(epochs=2, eval_every=1))
        result = trainer.fit()
        assert len(result.validation_history) == 2
        assert trainer._eval_runtime is None


class TestConfigKnobs:
    def test_eval_runtime_fields_round_trip(self):
        config = TrainConfig(eval_workers=4, eval_mode="thread")
        restored = TrainConfig.from_dict(config.to_dict())
        assert restored == config

    def test_invalid_eval_mode_rejected(self):
        with pytest.raises(ValueError, match="eval_mode"):
            TrainConfig(eval_mode="gpu")

    def test_negative_eval_workers_rejected(self):
        with pytest.raises(ValueError, match="eval_workers"):
            TrainConfig(eval_workers=-1)
