"""Model registry: lookup, aliases, building, ModelSpec round-trips."""

import numpy as np
import pytest

from repro.core.base import Recommender
from repro.core.pup import PUP
from repro.data import SyntheticConfig, generate
from repro.experiments import (
    PAPER_HPARAMS,
    ModelSpec,
    available_models,
    build_model,
    model_display_name,
    resolve_model_name,
)


@pytest.fixture(scope="module")
def dataset():
    config = SyntheticConfig(
        n_users=30, n_items=40, n_categories=4, n_price_levels=4,
        interactions_per_user=6, seed=3,
    )
    return generate(config)[0]


EXPECTED = {
    "pup", "pup-p", "pup-c", "pup-mf", "pup-minus",
    "itempop", "bpr-mf", "fm", "deepfm", "padq", "gcmc", "ngcf", "lightgcn",
}


def test_every_expected_model_is_registered():
    assert EXPECTED <= set(available_models())


def test_every_benchmark_model_is_registered_and_buildable(dataset):
    """Each Table II method the benchmarks train resolves and builds via the registry."""
    for name, hparams in PAPER_HPARAMS.items():
        display = model_display_name(name)
        canonical = resolve_model_name(display)  # display names are aliases
        assert canonical == name
        model = build_model(name, dataset, seed=0, **hparams)
        assert isinstance(model, Recommender)
        assert model.name == display
        assert model.model_spec is not None
        assert model.model_spec.name == canonical


def test_paper_hparams_cover_the_table2_methods():
    assert set(PAPER_HPARAMS) == {
        "itempop", "bpr-mf", "padq", "fm", "deepfm", "gcmc", "ngcf", "pup",
    }


def test_lookup_is_case_and_separator_insensitive():
    assert resolve_model_name("BPR_MF") == "bpr-mf"
    assert resolve_model_name("GC-MC") == "gcmc"
    assert resolve_model_name("PUP w/ p") == "pup-p"
    assert resolve_model_name("PUP-") == "pup-minus"


def test_unknown_model_raises():
    with pytest.raises(KeyError, match="unknown model"):
        build_model("transformer4rec", None)


def test_unknown_hparam_raises(dataset):
    with pytest.raises(TypeError, match="hyper-parameter"):
        build_model("bpr-mf", dataset, dim=8, flux_capacitance=1.21)


def test_build_is_deterministic_under_seed(dataset):
    a = build_model("pup", dataset, seed=7, global_dim=6, category_dim=4)
    b = build_model("pup", dataset, seed=7, global_dim=6, category_dim=4)
    for name, array in a.state_dict().items():
        np.testing.assert_array_equal(array, b.state_dict()[name])
    c = build_model("pup", dataset, seed=8, global_dim=6, category_dim=4)
    assert any(
        not np.array_equal(array, c.state_dict()[name])
        for name, array in a.state_dict().items()
    )


def test_build_attaches_rebuildable_spec(dataset):
    model = build_model("fm", dataset, seed=1, dim=6)
    rebuilt = model.model_spec.build(dataset)
    for name, array in model.state_dict().items():
        np.testing.assert_array_equal(array, rebuilt.state_dict()[name])


def test_explicit_rng_disables_spec_capture(dataset):
    model = build_model("bpr-mf", dataset, dim=6, rng=np.random.default_rng(0))
    assert model.model_spec is None


def test_model_spec_roundtrip():
    spec = ModelSpec("PUP", hparams={"global_dim": 6, "hidden": (4, 2)}, seed=3)
    assert spec.name == "pup"
    assert spec.hparams["hidden"] == [4, 2]  # canonicalized for JSON
    assert ModelSpec.from_dict(spec.to_dict()) == spec


def test_model_spec_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown ModelSpec"):
        ModelSpec.from_dict({"name": "pup", "lr": 0.1})


def test_recommender_from_config(dataset):
    config = {"name": "pup", "hparams": {"global_dim": 6, "category_dim": 4}, "seed": 0}
    model = Recommender.from_config(dataset, config)
    assert isinstance(model, PUP)
    np.testing.assert_array_equal(
        model.state_dict()["global_encoder.embedding.weight"],
        PUP.from_config(dataset, config).state_dict()["global_encoder.embedding.weight"],
    )
