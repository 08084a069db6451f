"""Index artifact: save → load → identical scores, and format safety."""

import numpy as np
import pytest

from repro.baselines import BPRMF, FM
from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.serving import EmbeddingIndex, export_index
from repro.archive import read_archive_metadata
from repro.train import save_checkpoint


@pytest.fixture(scope="module")
def dataset():
    config = SyntheticConfig(
        n_users=30, n_items=40, n_categories=3, n_price_levels=4,
        interactions_per_user=6, seed=23,
    )
    return generate(config)[0]


def build_index(dataset, factory, seed=0):
    model = factory(dataset, np.random.default_rng(seed))
    model.eval()
    return export_index(model, dataset)


FACTORIES = {
    "pup": lambda ds, rng: pup_full(ds, global_dim=10, category_dim=4, rng=rng),
    "bpr_mf": lambda ds, rng: BPRMF(ds, dim=8, rng=rng),
    "fm": lambda ds, rng: FM(ds, dim=8, rng=rng),
}


class TestRoundtrip:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_save_load_identical_scores(self, dataset, tmp_path, name):
        index = build_index(dataset, FACTORIES[name])
        path = index.save(str(tmp_path / name))
        assert path == str(tmp_path / name)
        loaded = EmbeddingIndex.load(path)

        users = np.arange(dataset.n_users)
        np.testing.assert_array_equal(loaded.score(users), index.score(users))
        assert loaded.model_name == index.model_name
        assert loaded.n_users == index.n_users and loaded.n_items == index.n_items
        np.testing.assert_array_equal(loaded.exclude_indptr, index.exclude_indptr)
        np.testing.assert_array_equal(loaded.exclude_indices, index.exclude_indices)
        np.testing.assert_array_equal(loaded.item_raw_prices, index.item_raw_prices)

    def test_roundtrip_preserves_branch_structure(self, dataset, tmp_path):
        index = build_index(dataset, FACTORIES["pup"])
        loaded = EmbeddingIndex.load(index.save(str(tmp_path / "pup2")))
        assert len(loaded.branches) == len(index.branches) == 2
        for ours, theirs in zip(index.branches, loaded.branches):
            assert ours.weight == theirs.weight
            np.testing.assert_array_equal(ours.user, theirs.user)
            np.testing.assert_array_equal(ours.item, theirs.item)
            np.testing.assert_array_equal(ours.item_const, theirs.item_const)

    def test_fm_user_const_survives(self, dataset, tmp_path):
        index = build_index(dataset, FACTORIES["fm"])
        index.branches[0].user_const[:] = np.arange(dataset.n_users, dtype=np.float64)
        loaded = EmbeddingIndex.load(index.save(str(tmp_path / "fm2")))
        np.testing.assert_array_equal(
            loaded.branches[0].user_const, np.arange(dataset.n_users, dtype=np.float64)
        )


class TestFormatSafety:
    def test_index_header_has_kind(self, dataset, tmp_path):
        index = build_index(dataset, FACTORIES["bpr_mf"])
        path = index.save(str(tmp_path / "idx"))
        metadata = read_archive_metadata(path)
        assert metadata["kind"] == "embedding_index"

    def test_loading_a_checkpoint_as_index_fails(self, dataset, tmp_path):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        path = save_checkpoint(model, str(tmp_path / "ckpt"))
        with pytest.raises(ValueError, match="not an embedding index"):
            EmbeddingIndex.load(path)

    def test_loading_an_index_as_checkpoint_fails(self, dataset, tmp_path):
        from repro.train import load_checkpoint

        index = build_index(dataset, FACTORIES["bpr_mf"])
        path = index.save(str(tmp_path / "idx2"))
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_checkpoint(model, path)

    @pytest.mark.parametrize("written, message", [(99, "newer"), (0, "re-export")])
    def test_rejects_other_format_version(
        self, dataset, tmp_path, monkeypatch, written, message
    ):
        index = build_index(dataset, FACTORIES["bpr_mf"])
        import repro.serving.index as index_module

        monkeypatch.setattr(index_module, "FORMAT_VERSION", written)
        path = index.save(str(tmp_path / "other"))
        monkeypatch.setattr(index_module, "FORMAT_VERSION", 1)
        with pytest.raises(ValueError, match=message):
            EmbeddingIndex.load(path)


class TestIndexInternals:
    def test_price_level_profile_sums_to_one(self, dataset):
        index = build_index(dataset, FACTORIES["bpr_mf"])
        profile = index.price_level_profile()
        assert profile.shape == (dataset.n_price_levels,)
        assert profile.min() >= 0
        np.testing.assert_allclose(profile.sum(), 1.0)

    def test_memory_bytes_positive(self, dataset):
        index = build_index(dataset, FACTORIES["pup"])
        assert index.memory_bytes() > 0

    def test_branches_are_frozen_copies(self, dataset):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        model.eval()
        index = export_index(model, dataset)
        before = index.score(np.arange(3)).copy()
        model.user_embedding.weight.data[:] = 0.0
        np.testing.assert_array_equal(index.score(np.arange(3)), before)
