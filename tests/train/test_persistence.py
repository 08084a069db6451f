"""Tests for checkpoint save/load."""

import numpy as np
import pytest

from repro.archive import read_archive_metadata
from repro.baselines import BPRMF
from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.train import load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def dataset():
    config = SyntheticConfig(
        n_users=25, n_items=30, n_categories=3, n_price_levels=3,
        interactions_per_user=6, seed=51,
    )
    return generate(config)[0]


class TestPersistence:
    def test_roundtrip(self, dataset, tmp_path):
        model = pup_full(dataset, global_dim=12, category_dim=4, rng=np.random.default_rng(0))
        path = save_checkpoint(model, str(tmp_path / "pup"))
        assert path == str(tmp_path / "pup")

        clone = pup_full(dataset, global_dim=12, category_dim=4, rng=np.random.default_rng(9))
        metadata = load_checkpoint(clone, path)
        assert metadata["model_class"] == "PUP"
        users = np.arange(5)
        model.eval(), clone.eval()
        np.testing.assert_allclose(clone.predict_scores(users), model.predict_scores(users))

    def test_metadata_only(self, dataset, tmp_path):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        path = save_checkpoint(model, str(tmp_path / "mf"), extra={"note": "hello"})
        metadata = read_archive_metadata(path)
        assert metadata["model_name"] == "BPR-MF"
        assert metadata["n_users"] == dataset.n_users
        assert metadata["extra"]["note"] == "hello"
        assert "user_embedding.weight" in metadata["parameter_names"]

    def test_strict_class_mismatch(self, dataset, tmp_path):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        path = save_checkpoint(model, str(tmp_path / "mf"))
        target = pup_full(dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            load_checkpoint(target, path)

    def test_non_strict_ignores_class(self, dataset, tmp_path):
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        path = save_checkpoint(model, str(tmp_path / "mf"))
        clone = BPRMF(dataset, dim=8, rng=np.random.default_rng(5))
        load_checkpoint(clone, path, strict=False)
        np.testing.assert_allclose(clone.user_embedding.weight.data, model.user_embedding.weight.data)

    def test_rejects_non_checkpoint(self, tmp_path, dataset):
        path = tmp_path / "junk"
        path.mkdir()
        np.save(path / "a.npy", np.zeros(3))
        model = BPRMF(dataset, dim=8, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            load_checkpoint(model, str(path))
