"""Tests for user-profile nodes (Section VII generality extension)."""

import numpy as np
import pytest

from repro.core import PUP
from repro.data import Dataset, InteractionTable, ItemCatalog
from repro.graph import HeteroGraph, NodeSpace


def make_dataset():
    catalog = ItemCatalog(
        raw_prices=[1.0, 2.0, 3.0, 4.0],
        categories=[0, 0, 1, 1],
        price_levels=[0, 1, 0, 1],
        n_categories=2,
        n_price_levels=2,
    )
    train = InteractionTable([0, 0, 1, 2], [0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0])
    empty = InteractionTable([], [], [])
    return Dataset("prof", 3, 4, catalog, train, empty, empty)


class TestNodeSpaceProfiles:
    def test_profile_offset_and_total(self):
        space = NodeSpace(3, 4, 2, 2, n_profiles=5)
        assert space.profile_offset == 11
        assert space.total == 16

    def test_profile_encoder(self):
        space = NodeSpace(3, 4, 2, 2, n_profiles=5)
        np.testing.assert_array_equal(space.profile([0, 4]), [11, 15])
        with pytest.raises(IndexError):
            space.profile([5])

    def test_node_type(self):
        space = NodeSpace(3, 4, 2, 2, n_profiles=2)
        assert space.node_type(10) == "price"
        assert space.node_type(11) == "profile"
        assert space.node_type(12) == "profile"

    def test_default_no_profiles(self):
        space = NodeSpace(3, 4, 2, 2)
        assert space.total == 11
        with pytest.raises(IndexError):
            space.profile([0])


class TestHeteroGraphProfiles:
    def test_profile_edges_added(self):
        profiles = np.array([0, 1, 0])
        graph = HeteroGraph(make_dataset(), user_profiles=profiles, n_profiles=2)
        # 12 base edges + 3 user-profile edges
        assert graph.n_edges == 15

    def test_user_connected_to_own_profile(self):
        profiles = np.array([0, 1, 0])
        graph = HeteroGraph(make_dataset(), user_profiles=profiles, n_profiles=2)
        adjacency = graph.adjacency().toarray()
        profile_node = graph.space.profile([1])[0]
        assert adjacency[1, profile_node] == 1.0
        assert adjacency[0, profile_node] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HeteroGraph(make_dataset(), user_profiles=np.array([0, 1]), n_profiles=2)
        with pytest.raises(ValueError):
            HeteroGraph(make_dataset(), user_profiles=np.array([0, 1, 0]), n_profiles=0)
        with pytest.raises(ValueError):
            HeteroGraph(make_dataset(), n_profiles=3)

    def test_normalized_rows_still_sum_to_one(self):
        graph = HeteroGraph(make_dataset(), user_profiles=np.array([0, 1, 0]), n_profiles=2)
        norm = graph.normalized_adjacency()
        np.testing.assert_allclose(norm.toarray().sum(axis=1), 1.0)


class TestPUPWithProfiles:
    def test_model_builds_and_scores(self):
        dataset = make_dataset()
        model = PUP(
            dataset,
            global_dim=8,
            category_dim=4,
            rng=np.random.default_rng(0),
            dropout=0.0,
            user_profiles=np.array([0, 1, 0]),
            n_profiles=2,
        )
        scores = model.predict_scores(np.array([0, 1, 2]))
        assert scores.shape == (3, 4)
        assert np.isfinite(scores).all()

    def test_profile_influences_user_scores(self):
        dataset = make_dataset()
        model = PUP(
            dataset,
            global_dim=8,
            category_dim=4,
            rng=np.random.default_rng(0),
            dropout=0.0,
            user_profiles=np.array([0, 1, 0]),
            n_profiles=2,
        )
        model.eval()
        base = model.predict_scores(np.array([0]))
        profile_node = model.global_graph.space.profile([0])[0]
        model.global_encoder.embedding.weight.data[profile_node] += 1.0
        after = model.predict_scores(np.array([0]))
        assert not np.allclose(base, after)

    def test_trains(self):
        from repro.train import TrainConfig, train_model

        dataset = make_dataset()
        model = PUP(
            dataset,
            global_dim=8,
            category_dim=4,
            rng=np.random.default_rng(0),
            dropout=0.0,
            user_profiles=np.array([0, 1, 0]),
            n_profiles=2,
        )
        result = train_model(model, dataset, TrainConfig(epochs=3, batch_size=4, seed=0))
        assert result.epochs_run == 3
