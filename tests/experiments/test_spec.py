"""ExperimentSpec and friends: lossless JSON round-trips + validation."""

import json

import pytest

from repro.experiments import ModelSpec
from repro.experiments.spec import DatasetSpec, EvalSpec, ExperimentSpec
from repro.train import TrainConfig


def make_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        model="pup",
        dataset="yelp",
        scale=0.25,
        hparams={"global_dim": 8, "category_dim": 4},
        seed=5,
        epochs=3,
        lr_milestones=[2],
        ks=(10, 20),
    )
    defaults.update(overrides)
    return ExperimentSpec.create(**defaults)


def test_dict_roundtrip_is_lossless():
    spec = make_spec()
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


def test_json_roundtrip_is_lossless():
    spec = make_spec()
    through_json = ExperimentSpec.from_json(spec.to_json())
    assert through_json == spec
    # and the serialized form itself is stable
    assert through_json.to_json() == spec.to_json()


def test_spec_file_roundtrip(tmp_path):
    spec = make_spec()
    path = spec.save(str(tmp_path / "spec.json"))
    assert ExperimentSpec.load(path) == spec


def test_spec_load_unwraps_artifact_envelope(tmp_path):
    """An artifact dir's spec.json (versioned envelope) loads directly."""
    spec = make_spec()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "format_version": 1, "repro_version": "0", "experiment": spec.to_dict(),
    }))
    assert ExperimentSpec.load(str(path)) == spec


def test_default_name_combines_model_and_dataset():
    assert make_spec().name == "pup_yelp"
    assert make_spec(name="custom").name == "custom"


def test_string_shorthand_for_dataset_and_model():
    spec = ExperimentSpec(dataset="yelp", model="bpr-mf")
    assert spec.dataset == DatasetSpec("yelp")
    assert spec.model == ModelSpec("bpr-mf")


def test_create_rejects_train_config_and_kwargs_together():
    with pytest.raises(ValueError, match="not both"):
        ExperimentSpec.create("pup", "yelp", train=TrainConfig(), epochs=3)


def test_create_seed_reaches_model_and_train():
    spec = make_spec(seed=9)
    assert spec.model.seed == 9
    assert spec.train.seed == 9


def test_unknown_fields_raise():
    payload = make_spec().to_dict()
    payload["optimizer"] = "sgd"
    with pytest.raises(ValueError, match="unknown ExperimentSpec"):
        ExperimentSpec.from_dict(payload)

    with pytest.raises(ValueError, match="unknown DatasetSpec"):
        DatasetSpec.from_dict({"name": "yelp", "subsample": 0.5})
    with pytest.raises(ValueError, match="unknown EvalSpec"):
        EvalSpec.from_dict({"split": "test", "metric": "auc"})
    with pytest.raises(ValueError, match="unknown TrainConfig"):
        TrainConfig.from_dict({"epochs": 2, "optimizer": "sgd"})


def test_dataset_spec_rejects_unknown_dataset():
    with pytest.raises(KeyError, match="unknown dataset"):
        DatasetSpec("movielens")


def test_eval_spec_validates_protocol():
    with pytest.raises(ValueError, match="split"):
        EvalSpec(split="holdout")
    with pytest.raises(ValueError, match="ks"):
        EvalSpec(ks=())
    with pytest.raises(ValueError, match="ks"):
        EvalSpec(ks=(0,))
    # cutoffs are sorted + deduplicated
    assert EvalSpec(ks=[20, 10, 20]).ks == (10, 20)


def test_train_config_roundtrip():
    config = TrainConfig(epochs=7, lr_milestones=[3, 5], eval_every=0)
    payload = json.loads(json.dumps(config.to_dict()))
    assert TrainConfig.from_dict(payload) == config
    assert config.lr_milestones == (3, 5)  # canonicalized to a tuple


def test_specs_written_with_the_retired_eval_shards_still_load():
    """Artifact specs written while ``eval_shards`` was a field carry
    ``"eval_shards": 1`` in their train block; that key alone is dropped."""
    spec = make_spec()
    payload = json.loads(json.dumps(spec.to_dict()))
    payload["train"]["eval_shards"] = 1
    assert TrainConfig.from_dict(payload["train"]) == spec.train
    assert ExperimentSpec.from_dict(payload) == spec
    payload["train"]["eval_slices"] = 2
    with pytest.raises(ValueError, match=r"unknown TrainConfig fields: \['eval_slices'\]"):
        ExperimentSpec.from_dict(payload)
