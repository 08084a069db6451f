"""f32/f64 parity through the serving path: identical top-K, close metrics."""

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.eval import evaluate
from repro.eval.topk import masked_topk
from repro.nn import precision
from repro.serving import export_index
from repro.train import TrainConfig, train_model


@pytest.fixture(scope="module")
def dataset():
    config = SyntheticConfig(
        n_users=50, n_items=70, n_categories=5, n_price_levels=4,
        interactions_per_user=12, seed=9,
    )
    return generate(config)[0]


@pytest.fixture(scope="module")
def trained_f64(dataset):
    model = pup_full(
        dataset, global_dim=12, category_dim=4, rng=np.random.default_rng(0), dropout=0.0
    )
    train_model(model, dataset, TrainConfig(epochs=5, seed=0, lr_milestones=(3,)))
    return model


@pytest.fixture(scope="module")
def model_pair(dataset, trained_f64):
    """The same trained weights hosted in an f64 and an f32 model."""
    with precision("float32"):
        model32 = pup_full(
            dataset, global_dim=12, category_dim=4, rng=np.random.default_rng(0), dropout=0.0
        )
    model32.load_state_dict(trained_f64.state_dict())  # cast to f32 on load
    model32.eval()
    return trained_f64, model32


class TestTopKParity:
    def test_index_topk_identical_across_precisions(self, dataset, model_pair):
        """Property: for every user, the f32 index ranks the same top-K items
        as the f64 index built from the same weights."""
        model64, model32 = model_pair
        index64 = export_index(model64, dataset)
        index32 = export_index(model32, dataset)
        assert index32.branches[0].user.dtype == np.float32
        assert index64.branches[0].user.dtype == np.float64

        users = np.arange(dataset.n_users)
        scores64 = index64.score(users)
        scores32 = index32.score(users)
        np.testing.assert_allclose(scores32, scores64, rtol=1e-4, atol=1e-5)
        for user in users:
            exclude = index64.excluded_items(int(user))
            top64 = masked_topk(scores64[user], 10, exclude_items=exclude)
            top32 = masked_topk(scores32[user].astype(np.float64), 10, exclude_items=exclude)
            np.testing.assert_array_equal(
                top32, top64, err_msg=f"top-K diverged for user {user}"
            )

    def test_f32_index_halves_memory(self, dataset, model_pair):
        model64, model32 = model_pair
        bytes64 = export_index(model64, dataset).memory_bytes()
        bytes32 = export_index(model32, dataset).memory_bytes()
        assert bytes32 < 0.6 * bytes64

    def test_f32_index_roundtrips_through_disk(self, dataset, model_pair, tmp_path):
        from repro.serving import EmbeddingIndex

        _, model32 = model_pair
        index = export_index(model32, dataset)
        path = index.save(str(tmp_path / "index32"))
        loaded = EmbeddingIndex.load(path)
        assert loaded.branches[0].user.dtype == np.float32
        np.testing.assert_array_equal(loaded.score([0, 1]), index.score([0, 1]))


class TestMetricParity:
    def test_eval_metrics_close_across_precisions(self, dataset, model_pair):
        model64, model32 = model_pair
        metrics64 = evaluate(model64, dataset, ks=(10, 20))
        metrics32 = evaluate(model32, dataset, ks=(10, 20))
        for name, value in metrics64.items():
            assert metrics32[name] == pytest.approx(value, abs=1e-6), name

    def test_f32_training_reaches_comparable_loss(self, dataset):
        """End-to-end: training natively in f32 lands within a few percent of
        the f64 loss trajectory (documented parity for docs/performance.md)."""
        config = TrainConfig(epochs=4, seed=0, lr_milestones=(3,))
        model64 = pup_full(
            dataset, global_dim=12, category_dim=4, rng=np.random.default_rng(0), dropout=0.0
        )
        loss64 = train_model(model64, dataset, config).final_loss
        with precision("float32"):
            model32 = pup_full(
                dataset, global_dim=12, category_dim=4, rng=np.random.default_rng(0), dropout=0.0
            )
        loss32 = train_model(model32, dataset, config).final_loss
        assert loss32 == pytest.approx(loss64, rel=0.05)

    def test_live_scores_match_index_scores_in_f32(self, dataset, model_pair):
        """The shared kernel guarantee holds in float32 too: live predict and
        the frozen index produce bit-identical scores."""
        _, model32 = model_pair
        index = export_index(model32, dataset)
        users = np.arange(0, dataset.n_users, 7)
        np.testing.assert_array_equal(model32.predict_scores(users), index.score(users))


class TestFrozenIndexAliasing:
    def test_exported_index_does_not_alias_live_weights(self, dataset):
        """Regression: ScoreBranch no longer copies at construction (keeps
        transient predict_scores zero-copy), so export_index's frozen_copy is
        what protects the index from continued training — verify it."""
        from repro.baselines import BPRMF

        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        index = export_index(model, dataset)
        users = np.arange(dataset.n_users)
        before = index.score(users).copy()
        for param in model.parameters():
            param.data += 17.0  # keep training / corrupt the live weights
        np.testing.assert_array_equal(index.score(users), before)
        for branch in index.branches:
            for param in model.parameters():
                assert not np.shares_memory(branch.user, param.data)
                assert not np.shares_memory(branch.item, param.data)
