"""Tests for the LightGCN extension baseline."""

import numpy as np
import pytest

from repro.baselines import LightGCN
from repro.baselines.lightgcn import _symmetric_normalized_bipartite
from repro.data import SyntheticConfig, generate


@pytest.fixture(scope="module")
def dataset():
    config = SyntheticConfig(
        n_users=30, n_items=40, n_categories=4, n_price_levels=3,
        interactions_per_user=8, seed=41,
    )
    return generate(config)[0]


class TestAdjacency:
    def test_symmetric(self, dataset):
        adjacency = _symmetric_normalized_bipartite(dataset)
        assert abs(adjacency.toarray() - adjacency.T.toarray()).sum() < 1e-12

    def test_no_self_loops(self, dataset):
        adjacency = _symmetric_normalized_bipartite(dataset)
        assert adjacency.toarray().diagonal().sum() == 0.0

    def test_spectral_norm_at_most_one(self, dataset):
        # Symmetric normalization bounds eigenvalues to [-1, 1].
        adjacency = _symmetric_normalized_bipartite(dataset).toarray()
        eigenvalues = np.linalg.eigvalsh(adjacency)
        assert eigenvalues.max() <= 1.0 + 1e-9
        assert eigenvalues.min() >= -1.0 - 1e-9


class TestLightGCN:
    def test_invalid_layers(self, dataset):
        with pytest.raises(ValueError):
            LightGCN(dataset, n_layers=0)

    def test_layer_combination_is_mean(self, dataset):
        model = LightGCN(dataset, dim=8, n_layers=2, rng=np.random.default_rng(0))
        e0 = model.embedding.weight.data
        e1 = model._adjacency @ e0
        e2 = model._adjacency @ e1
        expected = (e0 + e1 + e2) / 3.0
        np.testing.assert_allclose(model._propagate_inference(), expected, atol=1e-12)

    def test_training_and_inference_paths_agree(self, dataset):
        model = LightGCN(dataset, dim=8, rng=np.random.default_rng(0))
        np.testing.assert_allclose(model._propagate().data, model._propagate_inference(), atol=1e-12)

    def test_predict_matches_score_pairs(self, dataset):
        model = LightGCN(dataset, dim=8, rng=np.random.default_rng(0))
        model.eval()
        users = np.array([0, 5])
        matrix = model.predict_scores(users)
        items = np.arange(dataset.n_items)
        for row, user in enumerate(users):
            pair = model.score_pairs(np.full(dataset.n_items, user), items)
            np.testing.assert_allclose(matrix[row], pair.data, atol=1e-9)

    def test_trains_with_bpr(self, dataset):
        from repro.train import TrainConfig, train_model

        model = LightGCN(dataset, dim=16, rng=np.random.default_rng(0))
        result = train_model(model, dataset, TrainConfig(epochs=5, lr_milestones=(3,), seed=0))
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_no_nonlinearities_no_extra_params(self, dataset):
        """LightGCN's defining property: only the embedding table is learned."""
        model = LightGCN(dataset, dim=8, rng=np.random.default_rng(0))
        assert len(model.parameters()) == 1
