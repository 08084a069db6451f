"""Tests for the seven Table II baselines."""

import numpy as np
import pytest

from repro.baselines import BPRMF, FM, GCMC, NGCF, DeepFM, ItemPop, PaDQ
from repro.baselines._graph import bipartite_normalized_adjacency
from repro.data import SyntheticConfig, generate


@pytest.fixture(scope="module")
def dataset():
    config = SyntheticConfig(
        n_users=30, n_items=40, n_categories=4, n_price_levels=3,
        interactions_per_user=8, seed=21,
    )
    return generate(config)[0]


ALL_TRAINABLE = [
    lambda d: BPRMF(d, dim=8, rng=np.random.default_rng(0)),
    lambda d: FM(d, dim=8, rng=np.random.default_rng(0)),
    lambda d: DeepFM(d, dim=8, hidden=(16,), rng=np.random.default_rng(0)),
    lambda d: PaDQ(d, dim=8, rng=np.random.default_rng(0)),
    lambda d: GCMC(d, dim=8, rng=np.random.default_rng(0), dropout=0.0),
    lambda d: NGCF(d, dim=8, rng=np.random.default_rng(0), dropout=0.0),
]


class TestCommonInterface:
    @pytest.mark.parametrize("ctor", ALL_TRAINABLE)
    def test_score_pairs_shape(self, dataset, ctor):
        model = ctor(dataset)
        model.eval()
        scores = model.score_pairs(np.array([0, 1, 2]), np.array([3, 4, 5]))
        assert scores.shape == (3,)

    @pytest.mark.parametrize("ctor", ALL_TRAINABLE)
    def test_predict_scores_shape(self, dataset, ctor):
        model = ctor(dataset)
        model.eval()
        scores = model.predict_scores(np.array([0, 1]))
        assert scores.shape == (2, dataset.n_items)
        assert np.isfinite(scores).all()

    @pytest.mark.parametrize("ctor", ALL_TRAINABLE)
    def test_predict_matches_score_pairs(self, dataset, ctor):
        model = ctor(dataset)
        model.eval()
        users = np.array([0, 5])
        matrix = model.predict_scores(users)
        items = np.arange(dataset.n_items)
        for row, user in enumerate(users):
            pair = model.score_pairs(np.full(dataset.n_items, user), items)
            np.testing.assert_allclose(matrix[row], pair.data, atol=1e-8)

    @pytest.mark.parametrize("ctor", ALL_TRAINABLE)
    def test_bpr_forward_gradients(self, dataset, ctor):
        model = ctor(dataset)
        pos, neg, reg = model.bpr_forward(np.array([0, 1]), np.array([2, 3]), np.array([4, 5]))
        (neg - pos).softplus().mean().backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads, "no gradients flowed"

    @pytest.mark.parametrize("ctor", ALL_TRAINABLE)
    def test_one_training_step_reduces_loss(self, dataset, ctor):
        from repro.nn import Adam, bpr_loss

        model = ctor(dataset)
        users = np.arange(16) % dataset.n_users
        pos = np.arange(16) % dataset.n_items
        neg = (np.arange(16) + 9) % dataset.n_items
        opt = Adam(model.parameters(), lr=0.05)
        first = last = None
        for step in range(5):
            p, n, __ = model.bpr_forward(users, pos, neg)
            loss = bpr_loss(p, n)
            opt.zero_grad()
            loss.backward()
            opt.step()
            if step == 0:
                first = loss.item()
            last = loss.item()
        assert last < first


class TestItemPop:
    def test_not_trainable(self, dataset):
        assert not ItemPop(dataset).trainable

    def test_rank_order_matches_popularity(self, dataset):
        model = ItemPop(dataset)
        scores = model.predict_scores(np.array([0]))
        np.testing.assert_allclose(scores[0], dataset.item_popularity())

    def test_same_scores_for_all_users(self, dataset):
        scores = ItemPop(dataset).predict_scores(np.array([0, 1, 2]))
        assert (scores[0] == scores[1]).all()
        assert (scores[1] == scores[2]).all()

    def test_score_pairs_rejected(self, dataset):
        with pytest.raises(NotImplementedError):
            ItemPop(dataset).score_pairs(np.array([0]), np.array([0]))


class TestFM:
    def test_price_category_toggles(self, dataset):
        plain = FM(dataset, dim=8, rng=np.random.default_rng(0), use_price=False, use_category=False)
        assert plain.price_embedding is None
        assert plain.category_embedding is None
        scores = plain.predict_scores(np.array([0]))
        assert scores.shape == (1, dataset.n_items)

    def test_first_order_terms_matter(self, dataset):
        model = FM(dataset, dim=8, rng=np.random.default_rng(0))
        model.item_bias.data[:] = 0.0
        base = model.predict_scores(np.array([0]))[0]
        model.item_bias.data[7] = 100.0
        boosted = model.predict_scores(np.array([0]))[0]
        assert boosted[7] - base[7] == pytest.approx(100.0)


class TestPaDQ:
    def test_user_price_matrix_rows_normalized(self, dataset):
        model = PaDQ(dataset, dim=8, rng=np.random.default_rng(0))
        rows = model._user_price.sum(axis=1)
        active = rows > 0
        np.testing.assert_allclose(rows[active], 1.0)

    def test_item_price_matrix_one_hot(self, dataset):
        model = PaDQ(dataset, dim=8, rng=np.random.default_rng(0))
        np.testing.assert_allclose(model._item_price.sum(axis=1), 1.0)
        cols = model._item_price.argmax(axis=1)
        np.testing.assert_array_equal(cols, dataset.item_price_levels)

    def test_auxiliary_loss_positive_and_differentiable(self, dataset):
        model = PaDQ(dataset, dim=8, rng=np.random.default_rng(0))
        aux = model.auxiliary_loss(np.array([0, 1, 2]), np.array([3, 4, 5]))
        assert aux.item() > 0
        aux.backward()
        assert model.price_embedding.weight.grad is not None

    def test_invalid_price_weight(self, dataset):
        with pytest.raises(ValueError):
            PaDQ(dataset, price_weight=-1.0)

    def test_auxiliary_decreases_with_training(self, dataset):
        from repro.nn import Adam

        model = PaDQ(dataset, dim=8, rng=np.random.default_rng(0), price_weight=1.0)
        opt = Adam(model.parameters(), lr=0.05)
        users, items = np.arange(10), np.arange(10)
        first = None
        for step in range(10):
            aux = model.auxiliary_loss(users, items)
            opt.zero_grad()
            aux.backward()
            opt.step()
            if step == 0:
                first = aux.item()
        assert model.auxiliary_loss(users, items).item() < first


class TestGraphBaselines:
    def test_bipartite_adjacency_rows_sum_to_one(self, dataset):
        adjacency = bipartite_normalized_adjacency(dataset)
        np.testing.assert_allclose(adjacency.toarray().sum(axis=1), 1.0)

    def test_bipartite_shape(self, dataset):
        adjacency = bipartite_normalized_adjacency(dataset)
        n = dataset.n_users + dataset.n_items
        assert adjacency.shape == (n, n)

    def test_gcmc_ignores_price(self, dataset):
        """GC-MC has no price parameters at all."""
        model = GCMC(dataset, dim=8, rng=np.random.default_rng(0))
        names = [name for name, __ in model.named_parameters()]
        assert not any("price" in name for name in names)

    def test_ngcf_uses_price_feature(self, dataset):
        model = NGCF(dataset, dim=8, rng=np.random.default_rng(0), dropout=0.0)
        model.eval()
        base = model.predict_scores(np.array([0]))
        model.price_embedding.weight.data += 0.5
        shifted = model.predict_scores(np.array([0]))
        assert not np.allclose(base, shifted)

    def test_ngcf_price_feature_optional(self, dataset):
        model = NGCF(dataset, dim=8, rng=np.random.default_rng(0), use_price_feature=False)
        assert model.price_embedding is None
        model.eval()
        assert model.predict_scores(np.array([0])).shape == (1, dataset.n_items)

    def test_ngcf_final_rep_is_concat(self, dataset):
        model = NGCF(dataset, dim=8, rng=np.random.default_rng(0), dropout=0.0)
        model.eval()
        table = model._propagate_inference()
        assert table.shape[1] == 16  # [e0 | e1]


class TestDeepFM:
    def test_shares_embeddings_between_fm_and_deep(self, dataset):
        """Perturbing the shared embedding changes both components."""
        model = DeepFM(dataset, dim=8, hidden=(8,), rng=np.random.default_rng(0))
        model.eval()
        base = model.predict_scores(np.array([0]))
        model.user_embedding.weight.data[0] += 1.0
        after = model.predict_scores(np.array([0]))
        assert not np.allclose(base, after)

    def test_chunked_predict_consistent(self, dataset):
        model = DeepFM(dataset, dim=8, hidden=(8,), rng=np.random.default_rng(0))
        model.eval()
        a = model.predict_scores(np.array([0, 1]), item_chunk=7)
        b = model.predict_scores(np.array([0, 1]), item_chunk=1000)
        np.testing.assert_allclose(a, b, atol=1e-10)
