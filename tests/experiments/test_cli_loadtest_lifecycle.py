"""`loadtest` and `lifecycle`, driven through ``main()`` on a tiny trained
artifact: every load discipline, the chaos audit, and the whole
init → ingest → build → promote → rollback → status loop."""

import json

import pytest

from repro.cli import main
from repro.faults import describe_fault_points


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


TRAIN_ARGS = [
    "train", "--model", "pup", "--dataset", "yelp", "--scale", "0.2",
    "--epochs", "1", "--lr-milestones", "1", "--ks", "5,10", "--quiet",
    "--hparam", "global_dim=8", "--hparam", "category_dim=4",
]


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("cli-loadtest") / "pup_yelp")
    code = main([*TRAIN_ARGS, "--out", directory])
    assert code == 0
    return directory


def test_loadtest_closed_loop_writes_its_report(trained_dir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out = run_cli(
        ["loadtest", trained_dir, "--requests", "60", "--threads", "2",
         "--out", str(report_path)],
        capsys,
    )
    assert code == 0
    assert "60 requests: 60 ok, 0 degraded, 0 failed, 0 shed, 0 timeout" in out
    report = json.loads(report_path.read_text())
    assert report["n_requests"] == report["n_ok"] == 60


def test_loadtest_open_loop(trained_dir, capsys):
    code, out = run_cli(
        ["loadtest", trained_dir, "--mode", "open", "--rate-qps", "5000",
         "--requests", "40", "--cold-fraction", "0.5"],
        capsys,
    )
    assert code == 0
    assert "40 requests:" in out and "0 failed" in out


def test_loadtest_chaos_balances_the_books(trained_dir, tmp_path, capsys):
    report_path = tmp_path / "chaos.json"
    code, out = run_cli(
        ["loadtest", trained_dir, "--chaos", "--chaos-seed", "3",
         "--requests", "120", "--deadline-ms", "10000", "--out", str(report_path)],
        capsys,
    )
    assert code == 0
    assert "chaos audit: books balance" in out
    report = json.loads(report_path.read_text())
    assert report["ok"] and report["violations"] == []
    load = report["load"]
    assert load["n_requests"] == 120
    assert load["n_ok"] + load["n_degraded"] + load["failed_total"] == 120


def test_loadtest_lists_fault_points(capsys):
    code, out = run_cli(["loadtest", "--list-fault-points"], capsys)
    assert code == 0
    listed = [line.split()[0] for line in out.splitlines()]
    assert listed == list(describe_fault_points())


def test_lifecycle_loop(trained_dir, tmp_path, capsys):
    store = str(tmp_path / "lc")
    # a full probe, so the recall gate compares exact against exact
    code, out = run_cli(
        ["lifecycle", "init", store, "--artifacts", trained_dir,
         "--ann-nprobe", "1000"],
        capsys,
    )
    assert code == 0 and "bootstrapped v000001 (live)" in out
    code, out = run_cli(
        ["lifecycle", "ingest", store, "--simulate", "40", "--seed", "5"], capsys
    )
    assert code == 0
    assert "ingested 40 events (0 duplicates skipped), journal at seq 39" in out
    code, out = run_cli(["lifecycle", "build", store], capsys)
    assert code == 0
    assert "candidate v000002:" in out and "delta build" in out
    code, out = run_cli(
        ["lifecycle", "promote", store, "--recall-floor", "0.9"], capsys
    )
    assert code == 0
    assert "gate recall:" in out and "promoted v000002 (live)" in out
    code, out = run_cli(
        ["lifecycle", "rollback", store, "--reason", "test rollback"], capsys
    )
    assert code == 0 and "rolled back; v000001 is live" in out
    code, out = run_cli(["lifecycle", "status", store], capsys)
    assert code == 0
    status = json.loads(out)
    assert status["current"] == "v000001"
    assert status["journal"]["last_seq"] == 39
    assert [v["version"] for v in status["versions"]] == ["v000001", "v000002"]


def test_lifecycle_promote_rejects_below_the_floor(trained_dir, tmp_path, capsys):
    store = str(tmp_path / "lc")
    for argv in (
        ["init", store, "--artifacts", trained_dir],
        ["ingest", store, "--simulate", "40", "--seed", "5"],
        ["build", store],
    ):
        assert main(["lifecycle", *argv]) == 0
    capsys.readouterr()
    code = main(
        ["lifecycle", "promote", store, "--gate-nprobe", "1", "--recall-floor", "1.0",
         "--recall-k", "20", "--seed", "2"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "'k': 20" in captured.out and "'nprobe': 1" in captured.out
    assert "promotion REJECTED: recall" in captured.err


def test_lifecycle_zero_staleness_threshold_reclusters(trained_dir, tmp_path, capsys):
    store = str(tmp_path / "lc")
    assert main(["lifecycle", "init", store, "--artifacts", trained_dir]) == 0
    assert main(["lifecycle", "ingest", store, "--simulate", "40", "--seed", "5"]) == 0
    capsys.readouterr()
    code, out = run_cli(
        ["lifecycle", "build", store, "--staleness-threshold", "0"], capsys
    )
    assert code == 0
    assert "re-clustered" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rollback"], "has no parent to roll back to"),
        (["promote"], "no candidate version to promote"),
    ],
    ids=["rollback-without-parent", "promote-without-candidate"],
)
def test_a_store_refusal_is_one_line_and_exit_1(trained_dir, tmp_path, capsys, argv, message):
    store = str(tmp_path / "lc")
    assert main(["lifecycle", "init", store, "--artifacts", trained_dir]) == 0
    capsys.readouterr()
    code = main(["lifecycle", argv[0], store, *argv[1:]])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rollback"], "nothing is live; cannot roll back"),
        (["ingest", "--simulate", "5"], "store has no live version; run `lifecycle init` first"),
    ],
    ids=["rollback", "ingest"],
)
def test_a_store_refusal_before_init_is_one_line_and_exit_1(tmp_path, capsys, argv, message):
    code = main(["lifecycle", argv[0], str(tmp_path / "lc"), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"
