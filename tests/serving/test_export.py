"""Export parity: frozen index scores == live model scores."""

import numpy as np
import pytest

from repro.baselines import BPRMF, FM, GCMC, NGCF, DeepFM, ItemPop, LightGCN, PaDQ
from repro.core import (
    pup_full,
    pup_minus,
    pup_with_category,
    pup_with_price,
    pup_without_price_and_category,
)
from repro.data import SyntheticConfig, generate
from repro.serving import ExportError, export_index


@pytest.fixture(scope="module")
def dataset():
    config = SyntheticConfig(
        n_users=40, n_items=50, n_categories=4, n_price_levels=4,
        interactions_per_user=7, seed=11,
    )
    return generate(config)[0]


MODEL_FACTORIES = {
    "pup_full": lambda ds, rng: pup_full(ds, global_dim=12, category_dim=6, rng=rng),
    "pup_minus": lambda ds, rng: pup_minus(ds, global_dim=12, category_dim=6, rng=rng),
    "pup_with_price": lambda ds, rng: pup_with_price(ds, global_dim=12, category_dim=6, rng=rng),
    "pup_with_category": lambda ds, rng: pup_with_category(ds, global_dim=12, category_dim=6, rng=rng),
    "pup_plain_gcn": lambda ds, rng: pup_without_price_and_category(ds, global_dim=12, category_dim=6, rng=rng),
    "bpr_mf": lambda ds, rng: BPRMF(ds, dim=8, rng=rng),
    "lightgcn": lambda ds, rng: LightGCN(ds, dim=8, rng=rng),
    "ngcf": lambda ds, rng: NGCF(ds, dim=8, rng=rng),
    "gcmc": lambda ds, rng: GCMC(ds, dim=8, rng=rng),
    "fm": lambda ds, rng: FM(ds, dim=8, rng=rng),
    "padq": lambda ds, rng: PaDQ(ds, dim=8, rng=rng),
    "itempop": lambda ds, rng: ItemPop(ds),
}


class TestExportParity:
    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_index_scores_equal_predict_scores(self, dataset, name):
        model = MODEL_FACTORIES[name](dataset, np.random.default_rng(4))
        model.eval()
        index = export_index(model, dataset)
        users = np.arange(dataset.n_users)
        np.testing.assert_array_equal(index.score(users), model.predict_scores(users))

    def test_export_restores_training_mode(self, dataset):
        model = pup_full(dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(0))
        model.train()
        export_index(model, dataset)
        assert model.training

    def test_deepfm_is_not_exportable(self, dataset):
        model = DeepFM(dataset, dim=8, hidden=(8,), rng=np.random.default_rng(0))
        with pytest.raises(ExportError, match="factorizable"):
            export_index(model, dataset)

    def test_index_carries_catalog_and_exclusions(self, dataset):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(1))
        index = export_index(model, dataset, extra={"note": "abc"})
        np.testing.assert_array_equal(index.item_categories, dataset.item_categories)
        np.testing.assert_array_equal(index.item_price_levels, dataset.item_price_levels)
        np.testing.assert_array_equal(index.item_popularity, dataset.item_popularity())
        assert index.extra["note"] == "abc"
        train_pos = dataset.train_positive_sets()
        for user in range(dataset.n_users):
            expected = np.array(sorted(train_pos.get(user, ())), dtype=np.int64)
            np.testing.assert_array_equal(index.excluded_items(user), expected)
            assert index.is_warm(user) == (len(expected) > 0)

    def test_unseen_users_are_cold(self, dataset):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(1))
        index = export_index(model, dataset)
        assert not index.is_warm(dataset.n_users)
        assert not index.is_warm(-1)

