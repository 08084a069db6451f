"""Every workload at smoke size: green, named as BENCHMARK.json says, repeatable."""

import json
import os

import pytest

from e2e import run  # isort: skip - first: it puts src/ on sys.path
from e2e import inputs, metrics, trace

WORKLOADS = list(metrics.WORKLOADS)
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))


@pytest.fixture(scope="module")
def smoke():
    """Each workload run twice with one seed (the second run proves repeatability)."""
    return {
        name: [run.run_one(name, 3, 1.0, False, "smoke") for _ in range(2)]
        for name in WORKLOADS
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_is_correct_and_emits_the_end_to_end_metrics(smoke, name):
    report = smoke[name][0]
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    assert set(report["metrics"]) == set(metrics.END_TO_END)
    for metric, (unit, _better, _bound) in metrics.END_TO_END.items():
        assert report["metrics"][metric]["unit"] == unit
        assert report["metrics"][metric]["value"] > 0
    detail = report["detail"]
    assert set(detail["values"]) == set(metrics.UNTRACED)
    assert all(value > 0 for value in detail["values"].values())
    assert detail["slices_planned"] == run.SMOKE_SLICES
    assert detail["slices_clean"] + detail["slices_disturbed"] == detail["slices_run"]
    json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")})


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_the_same_work_and_the_same_answers(smoke, name):
    first, second = smoke[name]
    assert first["detail"]["values"]["recall_at_50"] == second["detail"]["values"]["recall_at_50"]
    assert first["attempted"] == second["attempted"]
    assert first["request_log"] == second["request_log"]


def test_train_loss_falls_slice_over_slice(smoke):
    losses = smoke["train"][0]["detail"]["losses"]
    assert len(losses) == run.SMOKE_SLICES and losses == sorted(losses, reverse=True)


def test_a_different_seed_gives_different_inputs():
    assert inputs.scan_requests(500, 50, seed=1, part=0) == inputs.scan_requests(500, 50, 1, 0)
    assert inputs.scan_requests(500, 50, seed=1, part=0) != inputs.scan_requests(500, 50, 2, 0)
    assert inputs.scan_requests(500, 50, seed=1, part=0) != inputs.scan_requests(500, 50, 1, 1)
    keys = inputs.hot_keys(500, 40, 4, seed=1)
    assert keys != inputs.hot_keys(500, 40, 4, seed=2)
    assert inputs.hot_requests(keys, 50, 1, 0) != inputs.hot_requests(keys, 50, 2, 0)
    assert inputs.refresh_events(100, 200, 60, 1, 0) == inputs.refresh_events(100, 200, 60, 1, 0)
    assert inputs.refresh_events(100, 200, 60, 1, 0) != inputs.refresh_events(100, 200, 60, 2, 0)


def test_every_new_user_arrives_with_a_first_basket():
    events = inputs.refresh_events(100, 200, 200, seed=5, start_seq=40)
    assert [e.seq for e in events] == list(range(40, 40 + len(events)))
    new_users = [e.user for e in events if e.kind == "add_user"]
    assert new_users == list(range(100, 100 + len(new_users))) and new_users
    for user in new_users:
        assert sum(e.kind == "interaction" and e.user == user for e in events) >= 3


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_smoke_run_prints_the_whole_ledger(name):
    report = run.run_one(name, 3, 1.0, True, "smoke")
    assert report["correct"] and report["failed"] == 0
    assert set(report["metrics"]) == set(metrics.PER_LAYER)
    for metric, (unit, _better) in metrics.PER_LAYER.items():
        assert report["metrics"][metric]["unit"] == unit
    spans = report["spans"]
    assert not trace.orphans(spans)
    roots = [s for s in spans if s.parent is None and s.op is not None]
    assert len(roots) == run.TRACE_SLICES
    assert 0.0 < report["metrics"]["bench.attributed_share"]["value"] <= 1.05
    assert report["metrics"]["bench.trace_overhead_ratio"]["value"] > 0
    with open(report["detail"]["trace_file"], encoding="utf-8") as handle:
        written = json.load(handle)
    assert len(written["spans"]) == len(spans) and written["layers"]


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == metrics.WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    } == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == metrics.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == metrics.END_TO_END["setup_s"][2]
    # Every value an untraced run measures is listed once, on one side or the other.
    assert set(metrics.UNTRACED) <= set(metrics.END_TO_END) | set(metrics.PER_LAYER)
    assert not set(metrics.END_TO_END) & set(metrics.PER_LAYER)
