"""CLI smoke tests: every subcommand drives the experiment API."""

import os

import pytest

from repro.cli import main
from repro.experiments import ExperimentSpec


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


TRAIN_ARGS = [
    "train", "--model", "pup", "--dataset", "yelp", "--scale", "0.2",
    "--epochs", "2", "--lr-milestones", "1", "--ks", "5,10", "--quiet",
    "--hparam", "global_dim=8", "--hparam", "category_dim=4",
]


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("cli") / "pup_yelp")
    code = main([*TRAIN_ARGS, "--out", directory])
    assert code == 0
    return directory


def test_list(capsys):
    code, out = run_cli(["list"], capsys)
    assert code == 0
    for token in ("yelp", "beibei", "amazon", "pup", "bpr-mf", "lightgcn"):
        assert token in out


def test_train_writes_artifacts_and_prints_metrics(trained_dir, capsys):
    assert {"spec.json", "checkpoint", "index", "metrics.json"} <= set(
        os.listdir(trained_dir)
    )


def test_evaluate(trained_dir, capsys):
    code, out = run_cli(["evaluate", trained_dir], capsys)
    assert code == 0
    assert "Recall@10" in out
    assert "reproduced to within 0.00e+00" in out


def test_evaluate_with_override_ks(trained_dir, capsys):
    code, out = run_cli(["evaluate", trained_dir, "--ks", "3"], capsys)
    assert code == 0
    assert "Recall@3" in out


def test_export(trained_dir, tmp_path, capsys):
    out_path = str(tmp_path / "replica_index")
    code, out = run_cli(["export", trained_dir, "--out", out_path], capsys)
    assert code == 0
    assert os.path.exists(out_path)
    assert "exported PUP index" in out


def test_serve_dry_run(trained_dir, capsys):
    code, out = run_cli(["serve", trained_dir, "--dry-run", "--k", "3"], capsys)
    assert code == 0
    assert "[warm]" in out
    assert "[cold_fallback]" in out
    assert "served 4 requests" in out


def test_serve_explicit_users(trained_dir, capsys):
    code, out = run_cli(["serve", trained_dir, "--users", "0,1", "--k", "2"], capsys)
    assert code == 0
    assert out.count("[warm]") == 2


def test_serve_through_gateway(trained_dir, capsys):
    code, out = run_cli(
        [
            "serve", trained_dir, "--dry-run", "--k", "3", "--gateway",
            "--queue-depth", "64", "--max-wait-ms", "1.5", "--rate-limit", "10000",
        ],
        capsys,
    )
    assert code == 0
    assert "gateway: queue depth 64, max wait 1.5 ms, 10000 req/s per tenant" in out
    assert "[warm]" in out
    assert "[cold_fallback]" in out
    assert "served 4 requests" in out


def test_train_from_spec_file(tmp_path, capsys):
    spec = ExperimentSpec.create(
        "bpr-mf", "yelp", scale=0.2, hparams={"dim": 8}, epochs=1,
        lr_milestones=[], ks=(5,), name="from_spec", verbose=False,
    )
    spec_path = spec.save(str(tmp_path / "spec.json"))
    out_dir = str(tmp_path / "artifacts")
    code, out = run_cli(
        ["train", "--spec", spec_path, "--out", out_dir, "--quiet"], capsys
    )
    assert code == 0
    assert "from_spec" in out
    assert os.path.exists(os.path.join(out_dir, "spec.json"))


def test_compare(capsys):
    code, out = run_cli(
        [
            "compare", "--models", "itempop,bpr-mf", "--dataset", "yelp",
            "--scale", "0.2", "--epochs", "1", "--ks", "5", "--quiet",
        ],
        capsys,
    )
    assert code == 0
    assert "ItemPop" in out and "BPR-MF" in out
    assert "Recall@5" in out


def test_train_spec_file_rejects_conflicting_flags(tmp_path):
    spec = ExperimentSpec.create(
        "bpr-mf", "yelp", scale=0.2, hparams={"dim": 8}, epochs=1, ks=(5,),
    )
    spec_path = spec.save(str(tmp_path / "spec.json"))
    with pytest.raises(SystemExit, match="--epochs"):
        main(["train", "--spec", spec_path, "--epochs", "2"])


def test_compare_resolves_aliases_to_paper_hparams(capsys, monkeypatch):
    """`--models gc-mc` must train with PAPER_HPARAMS['gcmc'], not defaults."""
    import repro.cli as cli

    captured = {}
    real_create = cli.ExperimentSpec.create.__func__

    def spy(cls, model, dataset, **kwargs):
        captured[model] = kwargs.get("hparams")
        return real_create(cls, model, dataset, **kwargs)

    monkeypatch.setattr(cli.ExperimentSpec, "create", classmethod(spy))
    code, _ = run_cli(
        [
            "compare", "--models", "gc-mc", "--dataset", "yelp",
            "--scale", "0.2", "--epochs", "1", "--ks", "5", "--quiet",
        ],
        capsys,
    )
    assert code == 0
    assert captured["gc-mc"] == {"dim": 64}


def test_serve_dry_run_overrides_users(trained_dir, capsys):
    code, out = run_cli(
        ["serve", trained_dir, "--users", "0", "--dry-run", "--k", "2"], capsys
    )
    assert code == 0
    assert "served 4 requests" in out  # sample mode, not the single user


def test_bad_lr_milestones_error_names_the_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(
            ["train", "--model", "pup", "--dataset", "yelp", "--lr-milestones", "5,x"]
        )
    assert exit_info.value.code == 2
    assert "argument --lr-milestones: expected comma-separated integers" in (
        capsys.readouterr().err
    )


def test_train_requires_model_and_dataset():
    with pytest.raises(SystemExit):
        main(["train", "--model", "pup"])


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
