"""The run() pipeline and artifact-directory rehydration guarantees."""

import json
import os
import shutil

import numpy as np
import pytest

from repro.archive import ArchiveCorrupted
from repro.cli import main
from repro.experiments import DatasetSpec, Experiment, ExperimentSpec, ModelSpec, run
from repro.experiments import artifacts as artifacts_module
from repro.experiments.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    CHECKPOINT_DIRNAME,
    INDEX_DIRNAME,
    LOSS_CURVE_FILENAME,
    METRICS_FILENAME,
    SPEC_FILENAME,
)
from repro.faults import corrupt_archive
from repro.serving import ExportError


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One tiny PUP experiment, run once and shared by every test here."""
    directory = str(tmp_path_factory.mktemp("experiment"))
    spec = ExperimentSpec.create(
        "pup",
        "yelp",
        scale=0.2,
        hparams={"global_dim": 8, "category_dim": 4},
        epochs=2,
        lr_milestones=[],
        ks=(5, 10),
    )
    experiment = run(spec, artifacts_dir=directory)
    return directory, experiment


def test_run_writes_every_artifact(artifacts):
    directory, _ = artifacts
    expected = {
        SPEC_FILENAME, CHECKPOINT_DIRNAME, INDEX_DIRNAME,
        METRICS_FILENAME, LOSS_CURVE_FILENAME,
    }
    assert expected <= set(os.listdir(directory))


def test_run_writes_no_observability_json(artifacts):
    directory, _ = artifacts
    assert set(os.listdir(directory)) == {
        SPEC_FILENAME, CHECKPOINT_DIRNAME, INDEX_DIRNAME,
        METRICS_FILENAME, LOSS_CURVE_FILENAME,
    }


def test_a_directory_holding_observability_json_still_loads(artifacts, tmp_path):
    """Directories written before spans replaced the profiler carry the
    registry snapshot file; the reader ignores it."""
    directory, experiment = artifacts
    clone = str(tmp_path / "older")
    shutil.copytree(directory, clone)
    snapshot = {"profiler_phase_seconds_total": {"type": "counter", "series": []}}
    with open(os.path.join(clone, "observability.json"), "w") as handle:
        json.dump(snapshot, handle)
    reloaded = Experiment.load(clone)
    assert reloaded.metrics == experiment.metrics
    assert reloaded.eval_profile == json.loads(json.dumps(experiment.eval_profile))
    assert not hasattr(reloaded, "obs_snapshot")
    assert reloaded.evaluate() == experiment.metrics


def test_eval_profile_keeps_the_recorded_key_sets(artifacts):
    """The key sets ``metrics.json`` held before spans replaced the profiler."""
    directory, _ = artifacts
    with open(os.path.join(directory, METRICS_FILENAME)) as handle:
        stored = json.load(handle)
    profile = stored["eval_profile"]
    assert set(profile) == {"total_seconds", "phases", "counters", "users_per_sec"}
    assert set(profile["phases"]) == {"score", "topk", "metrics"}
    assert set(profile["counters"]) == {"chunks", "evaluated_users", "eval_wall_seconds"}
    train = stored["train"]["profile"]
    assert set(train) == {
        "total_seconds", "phases", "counters", "train_seconds", "triples_per_sec",
    }
    assert set(train["phases"]) == {"sampling", "forward", "backward", "step"}
    assert set(train["counters"]) == {"triples", "batches", "epochs"}


def test_a_traced_run_profiles_only_its_final_evaluation(tmp_path):
    from repro.obs import Tracer

    spec = ExperimentSpec.create(
        "bprmf", "yelp", scale=0.2, hparams={"dim": 8}, epochs=2, eval_every=1,
        eval_k=5, ks=(5,),
    )
    tracer = Tracer()
    experiment = run(spec, tracer=tracer)
    records = tracer.records()
    final = [r for r in records if r["name"] == "eval"][-1]  # after two validations
    window = [r for r in records if r["start"] >= final["start"]]
    profile = experiment.eval_profile
    for phase in ("score", "topk", "metrics"):
        name = "eval.metrics" if phase == "metrics" else f"chunk.{phase}"
        spans = [r for r in window if r["name"] == name]
        assert profile["phases"][phase]["calls"] == len(spans) > 0
        assert profile["phases"][phase]["seconds"] == pytest.approx(
            sum(r["end"] - r["start"] for r in spans), rel=1e-12
        )
    assert profile["counters"]["eval_wall_seconds"] == final["end"] - final["start"]
    assert experiment.train_result.profile["phases"]["validate"]["calls"] == 2


def test_format_v2_stores_every_archive_as_a_directory(artifacts):
    directory, experiment = artifacts
    assert ARTIFACT_FORMAT_VERSION == 2
    for name in (CHECKPOINT_DIRNAME, INDEX_DIRNAME):
        assert os.path.isfile(os.path.join(directory, name, "metadata.json"))
    assert not [name for name in os.listdir(directory) if name.endswith(".npz")]
    reloaded = Experiment.load(directory)
    users = np.arange(experiment.dataset.n_users)
    np.testing.assert_array_equal(reloaded.index.score(users), experiment.index.score(users))


def test_spec_json_is_versioned_and_faithful(artifacts):
    directory, experiment = artifacts
    with open(os.path.join(directory, SPEC_FILENAME)) as handle:
        payload = json.load(handle)
    assert payload["format_version"] == ARTIFACT_FORMAT_VERSION
    assert ExperimentSpec.from_dict(payload["experiment"]) == experiment.spec


def test_metrics_json_nulls_untracked_validation_sentinels(artifacts):
    directory, _ = artifacts
    with open(os.path.join(directory, METRICS_FILENAME)) as handle:
        stored = json.load(handle)  # also proves it is strictly valid JSON
    assert stored["train"]["best_metric"] is None
    assert stored["train"]["best_epoch"] is None
    assert stored["train"]["epochs_run"] == 2
    assert stored["index"] == INDEX_DIRNAME
    assert set(stored["metrics"]) == {"Recall@5", "NDCG@5", "Recall@10", "NDCG@10"}


def test_loss_curve_has_one_point_per_epoch(artifacts):
    directory, experiment = artifacts
    with open(os.path.join(directory, LOSS_CURVE_FILENAME)) as handle:
        curves = json.load(handle)
    assert curves["epoch_losses"] == [float(x) for x in experiment.train_result.epoch_losses]
    assert len(curves["epoch_losses"]) == 2


def test_rehydrated_experiment_matches_in_process_run(artifacts):
    directory, experiment = artifacts
    reloaded = Experiment.load(directory)
    assert reloaded.spec == experiment.spec
    assert reloaded.metrics == pytest.approx(experiment.metrics)
    assert reloaded.train_result.epochs_run == experiment.train_result.epochs_run
    for name, array in experiment.model.state_dict().items():
        np.testing.assert_array_equal(array, reloaded.model.state_dict()[name])


def test_rehydrated_serving_topk_is_bit_identical(artifacts):
    """The acceptance-criterion identity: load() -> served top-K == topk_rankings."""
    directory, experiment = artifacts
    users = list(range(10))
    expected = experiment.topk(users, k=10)

    reloaded = Experiment.load(directory)
    service = reloaded.service(default_k=10)
    for user, recommendation in zip(users, service.recommend_many(users)):
        np.testing.assert_array_equal(recommendation.items, expected[user])


def test_rehydrated_evaluate_reproduces_stored_metrics(artifacts):
    directory, _ = artifacts
    reloaded = Experiment.load(directory)
    assert reloaded.evaluate() == pytest.approx(reloaded.metrics, abs=0)


@pytest.mark.parametrize("step", range(6))
def test_load_recovers_a_save_killed_at_any_publish_step(
    artifacts, tmp_path, monkeypatch, kill_publish, step
):
    """Saving over a directory publishes the checkpoint (steps 0-2), then
    the index (3-5); killed at any of them, the next load sweeps, warns,
    and rehydrates the same model and index."""
    directory, experiment = artifacts
    copy = shutil.copytree(directory, str(tmp_path / "experiment"))
    kill_publish.at(step)
    with pytest.raises(kill_publish.Killed):
        experiment.save(copy)
    monkeypatch.undo()

    with pytest.warns(RuntimeWarning, match="interrupted write"):
        reloaded = Experiment.load(copy)
    assert sorted(os.listdir(copy)) == sorted(os.listdir(directory))
    for name, array in experiment.model.state_dict().items():
        np.testing.assert_array_equal(array, reloaded.model.state_dict()[name])
    users = np.arange(experiment.dataset.n_users)
    np.testing.assert_array_equal(reloaded.index.score(users), experiment.index.score(users))


def test_export_false_skips_index(tmp_path):
    spec = ExperimentSpec.create(
        "bpr-mf", "yelp", scale=0.2, hparams={"dim": 8}, epochs=1, lr_milestones=[],
        ks=(5,), export=False,
    )
    experiment = run(spec, artifacts_dir=str(tmp_path))
    assert not os.path.exists(tmp_path / INDEX_DIRNAME)
    # the index is still reachable lazily from the live handle
    assert experiment.index.n_users == experiment.dataset.n_users


def test_non_factorizable_model_warns_and_still_reloads(tmp_path):
    spec = ExperimentSpec.create(
        "deepfm", "yelp", scale=0.2, hparams={"dim": 4, "hidden": [8]},
        epochs=1, lr_milestones=[], ks=(5,),
    )
    with pytest.warns(UserWarning, match="serving index skipped"):
        experiment = run(spec, artifacts_dir=str(tmp_path))
    assert not os.path.exists(tmp_path / INDEX_DIRNAME)

    reloaded = Experiment.load(str(tmp_path))
    assert reloaded.metrics == pytest.approx(experiment.metrics)
    with pytest.raises(ExportError):
        reloaded.service()


def spec_only_clone(directory, clone, version):
    """``clone`` holding ``directory``'s spec.json stamped with ``version``."""
    with open(os.path.join(directory, SPEC_FILENAME)) as handle:
        payload = json.load(handle)
    payload["format_version"] = version
    clone.mkdir()
    with open(clone / SPEC_FILENAME, "w") as handle:
        json.dump(payload, handle)
    return clone


def test_load_rejects_newer_format(artifacts, tmp_path):
    clone = spec_only_clone(artifacts[0], tmp_path / "newer", ARTIFACT_FORMAT_VERSION + 1)
    with pytest.raises(ValueError, match="newer than this reader"):
        Experiment.load(str(clone))


def test_load_refuses_a_v1_directory_before_touching_it(artifacts, tmp_path):
    clone = spec_only_clone(artifacts[0], tmp_path / "v1", 1)
    (clone / "checkpoint.npz").write_bytes(b"a v1 checkpoint")
    (clone / "index.npz.tmp-77.npz").write_bytes(b"a v1 staging leftover")
    with pytest.raises(ValueError, match="v1.*re-run `repro train`"):
        Experiment.load(str(clone))
    assert sorted(os.listdir(clone)) == [
        "checkpoint.npz", "index.npz.tmp-77.npz", SPEC_FILENAME
    ]


def test_load_requires_spec_json(tmp_path):
    with pytest.raises(FileNotFoundError, match="artifact directory"):
        Experiment.load(str(tmp_path))


@pytest.fixture
def rebuilds(monkeypatch):
    """Every dataset load, model build and checkpoint restore, by name."""
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(name) or real(*a, **kw))

    spy(DatasetSpec, "load")
    spy(ModelSpec, "build")
    spy(artifacts_module, "load_checkpoint")
    return calls


@pytest.mark.parametrize("command", ["service", "serve", "recommend", "loadtest", "lifecycle init"])
def test_serving_reads_the_index_not_the_experiment(artifacts, tmp_path, rebuilds, command):
    """Serving a saved index regenerates no dataset and restores no model."""
    directory, _ = artifacts
    argv = {
        "serve": ["serve", directory, "--dry-run"],
        "recommend": ["recommend", directory, "--k", "5", "--out", str(tmp_path / "recs")],
        "loadtest": ["loadtest", directory, "--requests", "20", "--threads", "1"],
        "lifecycle init": ["lifecycle", "init", str(tmp_path / "store"), "--artifacts", directory],
    }
    if command == "service":
        Experiment.load(directory).service().recommend_many([0, 1])
    else:
        assert main(argv[command]) == 0
    assert rebuilds == []
    # the spies are live: first use of the model rebuilds it
    Experiment.load(directory).model
    assert rebuilds == ["load", "build", "load_checkpoint"]


def test_a_corrupt_checkpoint_fails_at_first_use_of_the_model(artifacts, tmp_path):
    """The index verifies its own checksums, so it serves while the
    checkpoint beside it is corrupt; the model and evaluation refuse."""
    directory, _ = artifacts
    users = list(range(12))
    expected = Experiment.load(directory).service(default_k=10).recommend_many(users)
    copy = shutil.copytree(directory, str(tmp_path / "experiment"))
    corrupt_archive(os.path.join(copy, CHECKPOINT_DIRNAME), seed=1)

    reloaded = Experiment.load(copy)
    served = reloaded.service(default_k=10).recommend_many(users)
    for got, want in zip(served, expected):
        assert got.items.tobytes() == want.items.tobytes()
        assert got.scores.tobytes() == want.scores.tobytes()
    with pytest.raises(ArchiveCorrupted):
        reloaded.model
    with pytest.raises(ArchiveCorrupted):
        Experiment.load(copy).evaluate()


def test_a_corrupt_index_fails_at_load(artifacts, tmp_path):
    copy = shutil.copytree(artifacts[0], str(tmp_path / "experiment"))
    corrupt_archive(os.path.join(copy, INDEX_DIRNAME), seed=1)
    with pytest.raises(ArchiveCorrupted):
        Experiment.load(copy)
