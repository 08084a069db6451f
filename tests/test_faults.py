"""Deterministic fault injection: the plan itself must be trustworthy.

A chaos test is only as good as its fault source — these tests pin the
scheduling contract (same plan + same call sequence → identical faults),
the spec validation, and the archive corruption helper.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.faults import (
    ANN_SEARCH_ERROR,
    FAULT_POINTS,
    FLUSHER_CRASH,
    LIFECYCLE_BUILD_CRASH,
    LIFECYCLE_INGEST_CRASH,
    LIFECYCLE_PROMOTE_CRASH,
    POINTS,
    SCORER_DELAY,
    SCORER_ERROR,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    chaos_plan,
    corrupt_archive,
    describe_fault_points,
)
from repro.train.persistence import write_archive


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(SCORER_ERROR, probability=1.5)
        with pytest.raises(ValueError, match="times"):
            FaultSpec(SCORER_ERROR, times=(-1,))
        with pytest.raises(ValueError, match="max_fires"):
            FaultSpec(SCORER_ERROR, probability=0.5, max_fires=0)
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec(SCORER_DELAY, delay_s=-0.1)
        with pytest.raises(ValueError, match="point"):
            FaultSpec("")

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan([
                FaultSpec(SCORER_ERROR, times=(0,)),
                FaultSpec(SCORER_ERROR, times=(1,)),
            ])


class TestScheduling:
    def test_fires_exactly_at_named_occurrences(self):
        plan = FaultPlan([FaultSpec(SCORER_ERROR, times=(1, 3))])
        fired = [plan.should_fire(SCORER_ERROR) for _ in range(6)]
        assert fired == [False, True, False, True, False, False]

    def test_maybe_fail_raises_typed_error(self):
        plan = FaultPlan([FaultSpec(SCORER_ERROR, times=(0,))])
        with pytest.raises(InjectedFault, match=SCORER_ERROR.replace(".", r"\.")):
            plan.maybe_fail(SCORER_ERROR)
        plan.maybe_fail(SCORER_ERROR)  # occurrence 1: quiet

    def test_unknown_point_is_always_quiet(self):
        plan = FaultPlan([FaultSpec(SCORER_ERROR, times=(0,))])
        assert not plan.should_fire(FLUSHER_CRASH)
        plan.maybe_fail(ANN_SEARCH_ERROR)

    def test_probability_schedule_is_seed_deterministic(self):
        def run(seed):
            plan = FaultPlan([FaultSpec(SCORER_ERROR, probability=0.3)], seed=seed)
            return [plan.should_fire(SCORER_ERROR) for _ in range(60)]

        assert run(5) == run(5)
        assert run(5) != run(6)
        assert any(run(5)), "p=0.3 over 60 draws should fire at least once"

    def test_max_fires_caps_probabilistic_faults(self):
        plan = FaultPlan(
            [FaultSpec(SCORER_ERROR, probability=1.0, max_fires=2)], seed=0
        )
        fired = sum(plan.should_fire(SCORER_ERROR) for _ in range(10))
        assert fired == 2

    def test_delay_only_spec_never_raises(self):
        plan = FaultPlan([FaultSpec(SCORER_DELAY, times=(0,), delay_s=0.0)])
        plan.maybe_delay(SCORER_DELAY)  # fires: sleeps 0s, no exception
        assert plan.fires(SCORER_DELAY) == 1

    def test_snapshot_counts_occurrences_and_fires(self):
        plan = FaultPlan([FaultSpec(SCORER_ERROR, times=(0, 2))])
        for _ in range(4):
            plan.should_fire(SCORER_ERROR)
        snap = plan.snapshot()
        assert snap[SCORER_ERROR] == {"occurrences": 4, "fires": 2}
        assert plan.total_fires() == 2


class TestChaosPlan:
    def test_covers_requested_points(self):
        plan = chaos_plan(
            seed=1, scorer_errors=2, ann_failures=1,
            flusher_crashes=1, scorer_delays=1,
        )
        assert set(plan.points()) == {
            SCORER_ERROR, ANN_SEARCH_ERROR, FLUSHER_CRASH, SCORER_DELAY,
        }
        assert len(plan.spec(SCORER_ERROR).times) == 2

    def test_zero_counts_drop_points(self):
        plan = chaos_plan(seed=1, scorer_errors=1,
                          ann_failures=0, flusher_crashes=0)
        assert set(plan.points()) == {SCORER_ERROR}

    def test_lifecycle_points_excluded_by_default(self):
        plan = chaos_plan(seed=1)
        assert not set(plan.points()) & {
            LIFECYCLE_INGEST_CRASH, LIFECYCLE_BUILD_CRASH, LIFECYCLE_PROMOTE_CRASH,
        }

    def test_lifecycle_counts_create_specs(self):
        plan = chaos_plan(
            seed=1, scorer_errors=0, ann_failures=0,
            flusher_crashes=0, ingest_crashes=2, build_crashes=1, promote_crashes=1,
        )
        assert set(plan.points()) == {
            LIFECYCLE_INGEST_CRASH, LIFECYCLE_BUILD_CRASH, LIFECYCLE_PROMOTE_CRASH,
        }
        assert len(plan.spec(LIFECYCLE_INGEST_CRASH).times) == 2


class TestFaultPointRegistry:
    def test_every_point_constant_is_registered(self):
        assert POINTS == tuple(FAULT_POINTS)
        for point in (
            SCORER_ERROR, SCORER_DELAY, ANN_SEARCH_ERROR,
            FLUSHER_CRASH, LIFECYCLE_INGEST_CRASH, LIFECYCLE_BUILD_CRASH,
            LIFECYCLE_PROMOTE_CRASH,
        ):
            assert point in FAULT_POINTS

    def test_descriptions_are_nonempty_one_liners(self):
        table = describe_fault_points()
        assert table == FAULT_POINTS and table is not FAULT_POINTS
        for point, description in table.items():
            assert description and "\n" not in description, point

    def test_hard_kill_terminates_the_process(self, tmp_path):
        # os._exit(137) cannot be exercised in-process; prove it in a child.
        script = (
            "from repro.faults import FaultPlan, FaultSpec, LIFECYCLE_INGEST_CRASH\n"
            "plan = FaultPlan([FaultSpec(LIFECYCLE_INGEST_CRASH, times=(1,),"
            " hard_kill=True)])\n"
            "plan.maybe_fail(LIFECYCLE_INGEST_CRASH)\n"  # occurrence 0: quiet
            "plan.maybe_fail(LIFECYCLE_INGEST_CRASH)\n"  # occurrence 1: kill
            "print('unreachable')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 137
        assert "unreachable" not in result.stdout


class TestCorruptArchive:
    def test_explicit_victim(self, tmp_path):
        path = str(tmp_path / "b")
        write_archive(path, {"x": np.arange(10.0), "y": np.arange(9.0)}, metadata={})
        assert corrupt_archive(path, array="y") == "y"

    def test_rejects_non_archive(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not an archive")
        with pytest.raises(ValueError, match="not an archive directory"):
            corrupt_archive(str(path))
