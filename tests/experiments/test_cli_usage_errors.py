"""A flag value the CLI cannot honour is a usage error: exit 2 with the
usage line on stderr, before any artifact loads, any store opens or any
epoch runs."""

import os

import pytest

import repro.cli as cli
from repro.cli import main

TRAIN = ["train", "--model", "pup", "--dataset", "yelp", "--out", "{tmp}/run"]

BAD_VALUES = {
    "evaluate-workers": ["evaluate", "{tmp}/art", "--workers", "-3"],
    "recommend-workers": ["recommend", "{tmp}/art", "--workers", "-1"],
    "recommend-k": ["recommend", "{tmp}/art", "--k", "0"],
    "serve-k": ["serve", "{tmp}/art", "--k", "0"],
    "serve-queue-depth": ["serve", "{tmp}/art", "--gateway", "--queue-depth", "0"],
    "serve-max-wait": ["serve", "{tmp}/art", "--gateway", "--max-wait-ms", "0"],
    "serve-retries": ["serve", "{tmp}/art", "--resilience", "--retries", "-1"],
    "loadtest-requests": ["loadtest", "{tmp}/art", "--requests", "0"],
    "loadtest-threads": ["loadtest", "{tmp}/art", "--threads", "0"],
    "loadtest-cold-fraction": ["loadtest", "{tmp}/art", "--cold-fraction", "2"],
    "loadtest-rate": ["loadtest", "{tmp}/art", "--mode", "open", "--rate-qps", "0"],
    "train-epochs": [*TRAIN, "--epochs", "0"],
    "train-batch-size": [*TRAIN, "--batch-size", "0"],
    "train-ks": [*TRAIN, "--ks", "0"],
    "train-scale": [*TRAIN, "--scale", "-1"],
    "train-model": ["train", "--model", "nope", "--dataset", "yelp", "--out", "{tmp}/run"],
    "train-dataset": ["train", "--model", "pup", "--dataset", "nope", "--out", "{tmp}/run"],
    "train-eval-workers": [*TRAIN, "--eval-workers", "-1"],
    "train-lr-milestones": [*TRAIN, "--lr-milestones", "5,x"],
    "train-hparam": [*TRAIN, "--hparam", "global_dim"],
    "promote-gate-nprobe": ["lifecycle", "promote", "{tmp}/store", "--gate-nprobe", "0"],
    "promote-recall-floor": ["lifecycle", "promote", "{tmp}/store", "--recall-floor", "2"],
    "promote-recall-k": ["lifecycle", "promote", "{tmp}/store", "--recall-k", "0"],
    "build-staleness": ["lifecycle", "build", "{tmp}/store", "--staleness-threshold", "-1"],
    # compare builds every spec before the first one trains
    "compare-models": ["compare", "--models", "itempop,nope"],
    "compare-scale": ["compare", "--scale", "-1"],
}

#: the lifecycle flags, and the subcommands that read each one
LIFECYCLE_FLAGS = {
    "--seed": ("1", {"ingest", "promote"}),
    "--recall-floor": ("0.9", {"promote"}),
    "--recall-k": ("10", {"promote"}),
    "--gate-nprobe": ("2", {"promote"}),
    "--staleness-threshold": ("0", {"build"}),
}
REQUIRED = {"init": ["--artifacts", "{tmp}/art"], "ingest": ["--simulate", "5"]}
for command in ("init", "ingest", "build", "promote", "rollback", "status"):
    for flag, (value, readers) in LIFECYCLE_FLAGS.items():
        if command not in readers:
            BAD_VALUES[f"{command}{flag}"] = [
                "lifecycle", command, "{tmp}/store", *REQUIRED.get(command, ()), flag, value,
            ]


@pytest.fixture
def no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the command started work before checking its flags")

    monkeypatch.setattr(cli.Experiment, "load", refuse)
    monkeypatch.setattr(cli, "run", refuse)


@pytest.mark.parametrize("argv", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_a_bad_value_exits_2_before_any_work(argv, tmp_path, capsys, no_work):
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert exit_info.value.code == 2
    assert "usage: python -m repro" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")
    assert not os.path.exists(tmp_path / "store")


def test_a_rejected_value_is_named_on_stderr(tmp_path, capsys, no_work):
    with pytest.raises(SystemExit):
        main(["lifecycle", "promote", str(tmp_path / "store"), "--recall-floor", "2"])
    err = capsys.readouterr().err
    assert "usage: python -m repro lifecycle promote" in err
    assert "recall_floor must be in [0, 1], got 2.0" in err
