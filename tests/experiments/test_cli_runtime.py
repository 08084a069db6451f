"""CLI surface of the batch-inference runtime: --workers, recommend,
mmap-loadable export, and the persisted evaluation profile."""

import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.runtime import BulkRecommendations
from repro.serving import EmbeddingIndex


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
    directory = str(tmp_path_factory.mktemp("cli-runtime") / "pup_yelp")
    code = main([*TRAIN_ARGS, "--out", directory])
    assert code == 0
    return directory


def test_metrics_json_records_eval_profile(trained_dir):
    stored = json.load(open(os.path.join(trained_dir, "metrics.json")))
    profile = stored["eval_profile"]
    assert {"score", "topk", "metrics"} <= set(profile["phases"])
    assert profile["counters"]["evaluated_users"] > 0
    assert profile["users_per_sec"] > 0


def test_evaluate_parallel_matches_serial_and_prints_throughput(
    trained_dir, capsys, item_block
):
    code, serial_out = run_cli(["evaluate", trained_dir], capsys)
    assert code == 0
    item_block(150)  # the parallel pass ranks yelp's 180 items in 2 shards
    code, parallel_out = run_cli(["evaluate", trained_dir, "--workers", "2"], capsys)
    assert code == 0
    assert "users/s" in parallel_out and "2 workers" in parallel_out

    def metric_lines(text):
        return [line for line in text.splitlines() if "@" in line]

    assert metric_lines(serial_out) == metric_lines(parallel_out)
    assert "reproduced to within 0.00e+00" in parallel_out


def test_export_loads_with_mmap(trained_dir, tmp_path, capsys):
    out_path = str(tmp_path / "index-copy")
    code, out = run_cli(["export", trained_dir, "--out", out_path], capsys)
    assert code == 0
    index = EmbeddingIndex.load(out_path, mmap=True)
    user = index.branches[0].user
    assert isinstance(user, np.memmap) or isinstance(user.base, np.memmap)
    saved = EmbeddingIndex.load(os.path.join(trained_dir, "index"))
    users = np.arange(index.n_users)
    np.testing.assert_array_equal(index.score(users), saved.score(users))
    with pytest.raises(SystemExit):  # one container: nothing to choose
        main(["export", trained_dir, "--format", "dir"])


def test_recommend_bulk_export(trained_dir, tmp_path, capsys):
    out_path = str(tmp_path / "recs")
    code, out = run_cli(
        ["recommend", trained_dir, "--k", "5", "--workers", "2", "--out", out_path],
        capsys,
    )
    assert code == 0
    assert "users/s" in out
    recommendations = BulkRecommendations.load(out_path)
    assert recommendations.k == 5
    assert len(recommendations.users) > 0
    serial_path = str(tmp_path / "recs-serial")
    code, _ = run_cli(["recommend", trained_dir, "--k", "5", "--out", serial_path], capsys)
    assert code == 0
    serial = BulkRecommendations.load(serial_path)
    np.testing.assert_array_equal(serial.items, recommendations.items)
    np.testing.assert_array_equal(serial.scores, recommendations.scores)


def test_recommend_explicit_users(trained_dir, tmp_path, capsys):
    out_path = str(tmp_path / "recs-users")
    code, _ = run_cli(
        ["recommend", trained_dir, "--users", "3,1,2", "--out", out_path], capsys
    )
    assert code == 0
    recommendations = BulkRecommendations.load(out_path)
    np.testing.assert_array_equal(recommendations.users, [3, 1, 2])
