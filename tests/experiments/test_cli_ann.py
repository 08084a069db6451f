"""CLI surfaces of the approximate-retrieval stack."""

import os
import shutil

import pytest

from repro.cli import main
from repro.experiments.artifacts import ANN_DIRNAME, Experiment
from repro.archive import read_archive_metadata


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
    assert not read_archive_metadata(os.path.join(trained_dir, ANN_DIRNAME))["include_items"]


def test_serve_ann_answers_queries(trained_dir, capsys):
    code, out = run_cli(["serve", trained_dir, "--ann", "--dry-run"], capsys)
    assert code == 0
    assert "approximate retrieval" in out
    assert "[warm]" in out and "[cold_fallback]" in out


def test_recommend_ann_bulk_export(trained_dir, capsys):
    out_path = os.path.join(trained_dir, "bulk_ann")
    code, out = run_cli(
        ["recommend", trained_dir, "--k", "5", "--ann", "--out", out_path], capsys
    )
    assert code == 0
    assert "ann nprobe" in out
    assert os.path.exists(out_path)


@pytest.mark.parametrize("kind", ["ivf", "ivf-pq"])
def test_recommend_reports_every_ann_kind(trained_dir, capsys, kind):
    out_path = os.path.join(trained_dir, f"bulk_{kind}")
    code, out = run_cli(
        ["recommend", trained_dir, "--k", "5", "--ann-kind", kind, "--out", out_path],
        capsys,
    )
    assert code == 0
    assert "ann nprobe" in out and f"({kind})" in out
    assert os.path.exists(out_path)


def test_the_standalone_pq_kind_is_gone(trained_dir, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["recommend", trained_dir, "--k", "5", "--ann-kind", "pq"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'pq'" in capsys.readouterr().err


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
    when ann/ exists."""
    experiment = Experiment.load(trained_dir)
    assert experiment.ann_index(nprobe=4).nprobe == 4
    assert experiment.ann_index(nprobe=10_000).nprobe == 6  # clamped to n_lists
    rebuilt = experiment.ann_index(n_lists=3)
    assert rebuilt.n_lists == 3  # different layout: fresh build, not the archive


def test_tiered_loading_restages_an_archive_without_the_item_payload(trained_dir, tmp_path):
    copy = str(tmp_path / "copy")
    shutil.copytree(trained_dir, copy)
    ann = Experiment.load(copy).ann_index(memory_ceiling_bytes=1_000_000)
    assert ann.kind.startswith("tiered-")
    assert read_archive_metadata(os.path.join(copy, ANN_DIRNAME))["include_items"]
    again = Experiment.load(copy).ann_index(memory_ceiling_bytes=1_000_000)
    assert again.n_lists == ann.n_lists


# Last in the module: a parser that let one of these through would run the
# command against the shared artifact dir.
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["serve", "{dir}", "--ann", "--ann-lists", "0", "--dry-run"], id="lists-0"),
        pytest.param(["serve", "{dir}", "--ann", "--ann-lists", "six", "--dry-run"], id="lists-six"),
        pytest.param(["recommend", "{dir}", "--ann", "--ann-lists", "-1"], id="lists-neg"),
        pytest.param(["serve", "{dir}", "--ann", "--ann-nprobe", "0", "--dry-run"], id="nprobe-0"),
        pytest.param(["evaluate", "{dir}", "--ann-check", "--ann-k", "0"], id="k-0"),
        pytest.param(["export", "{dir}", "--ann", "--memory-ceiling", "-5"], id="ceiling-neg"),
        pytest.param(
            ["lifecycle", "init", "{dir}/store", "--artifacts", "{dir}", "--ann-nprobe", "0"],
            id="lifecycle-nprobe-0",
        ),
    ],
)
def test_out_of_range_ann_flags_exit_2_at_the_parser(trained_dir, capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(dir=trained_dir) for arg in argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "expected an integer >=" in err
