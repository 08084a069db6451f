"""The trainer's span timing (``TrainResult.profile``, the progress line)
and its best-checkpoint no-aliasing guarantee."""

import json
import re
import weakref

import numpy as np
import pytest

from repro.baselines import BPRMF
from repro.data import SyntheticConfig, generate
from repro.obs.trace import Tracer
from repro.train import TrainConfig, Trainer
from repro.train import trainer as trainer_module
from repro.train.trainer import TRAIN_PHASES, TrainResult

#: ``TrainResult.profile``'s key sets, as recorded before spans replaced the
#: profiler (a PUP fit with validation)
PROFILE_KEYS = {"total_seconds", "phases", "counters", "train_seconds", "triples_per_sec"}
PROFILE_PHASES = {"sampling", "forward", "backward", "step", "validate"}
PROFILE_COUNTERS = {"triples", "batches", "epochs"}


@pytest.fixture(scope="module")
def dataset():
    config = SyntheticConfig(
        n_users=40, n_items=50, n_categories=4, n_price_levels=3,
        interactions_per_user=10, seed=31,
    )
    return generate(config)[0]


class TestTrainerProfiling:
    def test_fit_populates_profile(self, dataset):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        result = Trainer(model, dataset, TrainConfig(epochs=3, seed=0)).fit()
        profile = result.profile
        assert profile is not None
        for phase in TRAIN_PHASES:
            assert phase in profile["phases"], phase
        assert profile["counters"]["epochs"] == 3
        assert profile["counters"]["triples"] == 3 * len(dataset.train)
        assert result.triples_per_sec > 0
        assert profile["train_seconds"] <= profile["total_seconds"] + 1e-9

    def test_profile_serializes_and_roundtrips(self, dataset):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        result = Trainer(model, dataset, TrainConfig(epochs=2, seed=0)).fit()
        restored = TrainResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.profile == result.profile
        assert restored.triples_per_sec == pytest.approx(result.triples_per_sec)

    def test_non_trainable_has_no_profile(self, dataset):
        from repro.baselines import ItemPop

        result = Trainer(ItemPop(dataset), dataset, TrainConfig(epochs=2)).fit()
        assert result.profile is None
        assert result.triples_per_sec is None

    def test_verbose_line_includes_throughput(self, dataset, capsys):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        Trainer(model, dataset, TrainConfig(epochs=1, verbose=True, seed=0)).fit()
        out = capsys.readouterr().out
        assert "triples/s" in out
        assert "loss=" in out and "lr=" in out

    def test_validation_timed_outside_train_phases(self, dataset):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        config = TrainConfig(epochs=2, eval_every=1, eval_k=10)
        result = Trainer(model, dataset, config).fit()
        assert "validate" in result.profile["phases"]
        train_seconds = sum(
            result.profile["phases"][p]["seconds"] for p in TRAIN_PHASES
        )
        assert result.profile["train_seconds"] == pytest.approx(train_seconds)

    def test_profile_keeps_the_recorded_key_sets(self, dataset):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        config = TrainConfig(epochs=2, eval_every=1, eval_k=10)
        profile = Trainer(model, dataset, config).fit().profile
        assert set(profile) == PROFILE_KEYS
        assert set(profile["phases"]) == PROFILE_PHASES
        for phase in profile["phases"].values():
            assert set(phase) == {"seconds", "calls", "share"}
        assert set(profile["counters"]) == PROFILE_COUNTERS

    def test_phase_seconds_are_the_summed_spans_in_the_callers_tracer(self, dataset):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        config = TrainConfig(epochs=3, eval_every=1, eval_k=10, batch_size=128)
        tracer = Tracer()
        result = Trainer(model, dataset, config, tracer=tracer).fit()
        records = tracer.records()
        epochs = {r["span_id"] for r in records if r["name"] == "train.epoch"}
        assert len(epochs) == 3
        for phase, entry in result.profile["phases"].items():
            spans = [r for r in records if r["name"] == f"train.{phase}"]
            assert entry["calls"] == len(spans)
            assert entry["seconds"] == pytest.approx(
                sum(r["end"] - r["start"] for r in spans), rel=1e-12, abs=1e-12
            )
            if phase != "validate":
                assert all(r["parent_id"] in epochs for r in spans)
        batches = result.profile["counters"]["batches"]
        assert result.profile["phases"]["forward"]["calls"] == batches
        # one sampling call per batch plus the one that finds the epoch done
        assert result.profile["phases"]["sampling"]["calls"] == batches + 3
        assert result.profile["phases"]["validate"]["calls"] == 3

    def test_untraced_fit_keeps_at_most_one_epoch_of_records(self, dataset, monkeypatch):
        alive = []
        largest = []

        class CountingTracer(Tracer):
            def __init__(self, *args, **kwargs):
                live = [ref() for ref in alive if ref() is not None]
                largest.append(sum(len(tracer) for tracer in live))
                super().__init__(*args, **kwargs)
                alive.append(weakref.ref(self))

        monkeypatch.setattr(trainer_module, "Tracer", CountingTracer)
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        config = TrainConfig(epochs=4, eval_every=1, eval_k=10, batch_size=128)
        result = Trainer(model, dataset, config).fit()
        assert len(alive) == 4  # one private tracer per epoch
        steps = result.profile["counters"]["batches"] // 4
        # four phase spans a step, the sampling call that ends the epoch,
        # train.epoch and train.validate
        one_epoch = 4 * steps + 3
        assert largest == [0, one_epoch, one_epoch, one_epoch]
        assert all(ref() is None for ref in alive)  # nothing outlives the fit

    def test_early_stopped_fit_still_profiles_its_last_validation(self, dataset):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        config = TrainConfig(
            epochs=30, eval_every=1, eval_k=10, early_stop_patience=1, learning_rate=0.5,
        )
        result = Trainer(model, dataset, config).fit()
        assert result.epochs_run < 30  # the loop broke out early
        assert result.profile["phases"]["validate"]["calls"] == len(result.validation_history)
        assert result.profile["counters"]["epochs"] == result.epochs_run

    def test_verbose_line_shows_each_phase_share(self, dataset, capsys):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        Trainer(model, dataset, TrainConfig(epochs=1, verbose=True, seed=0)).fit()
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert re.search(
            r"triples/s \(backward \d+% forward \d+% sampling \d+% step \d+%\)$", line
        ), line


class TestBestCheckpointAliasing:
    def test_snapshot_is_deep_copied(self, dataset):
        """Regression: the early-stopping checkpoint must not alias live
        parameters, or later epochs would silently corrupt the restored
        best state."""
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        trainer = Trainer(model, dataset, TrainConfig(epochs=1, seed=0))
        snapshot = trainer._snapshot_state()
        reference = {name: value.copy() for name, value in snapshot.items()}
        for param in model.parameters():
            param.data += 123.0  # in-place mutation, as the optimizer does
        for name, value in snapshot.items():
            np.testing.assert_array_equal(value, reference[name])

    def test_restored_best_state_survives_later_epochs(self, dataset):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        config = TrainConfig(epochs=4, eval_every=1, eval_k=10)
        trainer = Trainer(model, dataset, config)
        result = trainer.fit()
        from repro.eval import evaluate

        metrics = evaluate(model, dataset, split="validation", ks=(10,))
        assert metrics["Recall@10"] == pytest.approx(result.best_metric)
