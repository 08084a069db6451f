"""Tests for the GCN encoder and the pairwise-interaction decoder."""

import numpy as np
import pytest

from repro.core import GCNEncoder, pairwise_interaction, pairwise_interaction_numpy
from repro.data import Dataset, InteractionTable, ItemCatalog
from repro.graph import HeteroGraph
from repro.nn import Tensor


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
    return Dataset("enc", 3, 4, catalog, train, empty, empty)


class TestGCNEncoder:
    def test_output_shape(self):
        graph = HeteroGraph(make_dataset())
        encoder = GCNEncoder(graph, dim=8, rng=np.random.default_rng(0), dropout=0.0)
        out = encoder()
        assert out.shape == (graph.n_nodes, 8)

    def test_output_bounded_by_tanh(self):
        graph = HeteroGraph(make_dataset())
        encoder = GCNEncoder(graph, dim=8, rng=np.random.default_rng(0), dropout=0.0)
        assert np.all(np.abs(encoder().data) <= 1.0)

    def test_matches_manual_formula(self):
        """F_out must equal tanh(Â W) exactly (Eq. 6)."""
        graph = HeteroGraph(make_dataset())
        encoder = GCNEncoder(graph, dim=4, rng=np.random.default_rng(1), dropout=0.0)
        expected = np.tanh(graph.normalized_adjacency() @ encoder.embedding.weight.data)
        np.testing.assert_allclose(encoder().data, expected)

    def test_inference_path_matches_training_path(self):
        graph = HeteroGraph(make_dataset())
        encoder = GCNEncoder(graph, dim=4, rng=np.random.default_rng(1), dropout=0.0)
        np.testing.assert_allclose(encoder.propagate_inference(), encoder().data)

    def test_zero_layers_returns_embeddings(self):
        graph = HeteroGraph(make_dataset())
        encoder = GCNEncoder(graph, dim=4, rng=np.random.default_rng(1), dropout=0.0, n_layers=0)
        np.testing.assert_allclose(encoder().data, encoder.embedding.weight.data)

    def test_two_layers_stack(self):
        graph = HeteroGraph(make_dataset())
        encoder = GCNEncoder(graph, dim=4, rng=np.random.default_rng(1), dropout=0.0, n_layers=2)
        adjacency = graph.normalized_adjacency()
        expected = np.tanh(adjacency @ np.tanh(adjacency @ encoder.embedding.weight.data))
        np.testing.assert_allclose(encoder().data, expected)

    def test_dropout_only_in_training(self):
        graph = HeteroGraph(make_dataset())
        encoder = GCNEncoder(graph, dim=32, rng=np.random.default_rng(0), dropout=0.5)
        encoder.train()
        assert (encoder().data == 0.0).any()
        encoder.eval()
        assert not (encoder().data == 0.0).any()

    def test_gradient_reaches_embeddings(self):
        graph = HeteroGraph(make_dataset())
        encoder = GCNEncoder(graph, dim=4, rng=np.random.default_rng(0), dropout=0.0)
        encoder().sum().backward()
        assert encoder.embedding.weight.grad is not None
        assert np.abs(encoder.embedding.weight.grad).sum() > 0

    def test_invalid_dim(self):
        graph = HeteroGraph(make_dataset())
        with pytest.raises(ValueError):
            GCNEncoder(graph, dim=0)

    def test_invalid_layers(self):
        graph = HeteroGraph(make_dataset())
        with pytest.raises(ValueError):
            GCNEncoder(graph, dim=4, n_layers=-1)

    def test_price_influences_user_representation(self):
        """Perturbing a price embedding must change connected users' outputs
        (the 'propagate price to users through items' claim)."""
        dataset = make_dataset()
        graph = HeteroGraph(dataset)
        encoder = GCNEncoder(graph, dim=4, rng=np.random.default_rng(0), dropout=0.0)
        base = encoder.propagate_inference()
        price_node = graph.space.price([0])[0]
        encoder.embedding.weight.data[price_node] += 1.0
        after = encoder.propagate_inference()
        # user 0 bought item 0 (price level 0): one hop is item, price is 2 hops;
        # with a single conv layer the *item* row changes, users change at 2 layers.
        item_node = graph.space.item([0])[0]
        assert np.abs(after[item_node] - base[item_node]).sum() > 0


class TestPairwiseInteraction:
    def test_matches_explicit_sum(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.normal(size=(5, 4)) for _ in range(3))
        expected = (a * b).sum(1) + (a * c).sum(1) + (b * c).sum(1)
        out = pairwise_interaction([Tensor(a), Tensor(b), Tensor(c)])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_two_features_is_dot_product(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        out = pairwise_interaction([Tensor(a), Tensor(b)])
        np.testing.assert_allclose(out.data, (a * b).sum(1), atol=1e-12)

    def test_numpy_twin_agrees(self):
        rng = np.random.default_rng(2)
        arrays = [rng.normal(size=(6, 8)) for _ in range(4)]
        tensor_out = pairwise_interaction([Tensor(x) for x in arrays])
        numpy_out = pairwise_interaction_numpy(arrays)
        np.testing.assert_allclose(tensor_out.data, numpy_out, atol=1e-12)

    def test_single_feature_rejected(self):
        with pytest.raises(ValueError):
            pairwise_interaction([Tensor(np.ones((2, 2)))])
        with pytest.raises(ValueError):
            pairwise_interaction_numpy([np.ones((2, 2))])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_interaction([Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2)))])

    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    def test_gradient_matches_finite_difference(self, check_grads, dtype):
        rng = np.random.default_rng(3)
        features = [rng.normal(size=(4, 3)).astype(dtype) for _ in range(3)]
        weights = Tensor(rng.normal(size=4).astype(dtype))
        grads = check_grads(
            lambda *tensors: (pairwise_interaction(list(tensors)) * weights).sum(), *features
        )
        __, b, c = features
        np.testing.assert_allclose(grads[0], (b + c) * weights.data[:, None], rtol=1e-5)
