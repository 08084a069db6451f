"""CLI surfaces of the approximate-retrieval stack."""

import os

import pytest

from repro.cli import main
from repro.experiments.artifacts import ANN_FILENAME, Experiment


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
    directory = str(tmp_path_factory.mktemp("cli_ann") / "pup_yelp")
    code = main([*TRAIN_ARGS, "--out", directory])
    assert code == 0
    return directory


def test_export_ann_writes_the_archive(trained_dir, capsys):
    code, out = run_cli(["export", trained_dir, "--ann", "--ann-lists", "6"], capsys)
    assert code == 0
    assert "exported ANN index (ivf): 6 lists" in out
    assert os.path.exists(os.path.join(trained_dir, ANN_FILENAME))


def test_serve_ann_answers_queries(trained_dir, capsys):
    code, out = run_cli(["serve", trained_dir, "--ann", "--dry-run"], capsys)
    assert code == 0
    assert "approximate retrieval" in out
    assert "[warm]" in out and "[cold_fallback]" in out


def test_recommend_ann_bulk_export(trained_dir, capsys):
    out_path = os.path.join(trained_dir, "bulk_ann.npz")
    code, out = run_cli(
        ["recommend", trained_dir, "--k", "5", "--ann", "--out", out_path], capsys
    )
    assert code == 0
    assert "ann nprobe" in out
    assert os.path.exists(out_path)


@pytest.mark.parametrize("kind", ["ivf", "ivf-pq", "pq"])
def test_recommend_reports_every_ann_kind(trained_dir, capsys, kind):
    """Regression: the summary line read ``nprobe``/``n_lists`` off a PQIndex."""
    out_path = os.path.join(trained_dir, f"bulk_{kind}.npz")
    code, out = run_cli(
        ["recommend", trained_dir, "--k", "5", "--ann-kind", kind, "--out", out_path],
        capsys,
    )
    assert code == 0
    assert f"({kind})" in out
    assert ("ann nprobe" in out) == (kind != "pq")
    assert os.path.exists(out_path)


def test_ann_check_passes_at_full_probe(trained_dir, capsys):
    code, out = run_cli(
        ["evaluate", trained_dir, "--ann-check", "--ann-nprobe", "100000",
         "--ann-recall-floor", "1.0"],
        capsys,
    )
    assert code == 0
    assert "recall@50=1.0000" in out


def test_ann_check_fails_below_floor(trained_dir, capsys):
    # an impossible floor guarantees the gate trips regardless of geometry
    code, out = run_cli(
        ["evaluate", trained_dir, "--ann-check", "--ann-nprobe", "1",
         "--ann-recall-floor", "1.01"],
        capsys,
    )
    assert code == 1
    assert "FAIL" in out


def test_saved_ann_reused_by_experiment_handle(trained_dir):
    experiment = Experiment.load(trained_dir)
    ann = experiment.ann_index()
    assert ann.n_lists == 6  # the archive written by test_export_ann, not a rebuild


def test_explicit_knobs_override_the_saved_archive(trained_dir):
    """Regression: --ann-nprobe/--ann-lists must not be silently ignored
    when ann.npz exists."""
    experiment = Experiment.load(trained_dir)
    assert experiment.ann_index(nprobe=4).nprobe == 4
    assert experiment.ann_index(nprobe=10_000).nprobe == 6  # clamped to n_lists
    rebuilt = experiment.ann_index(n_lists=3)
    assert rebuilt.n_lists == 3  # different layout: fresh build, not the archive
