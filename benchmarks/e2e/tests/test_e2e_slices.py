"""The guarded-slice protocol on synthetic timings (no program code runs)."""

import statistics

from e2e import slices
from e2e.calibrate import Calibrator, Reading

QUIET = 1.0  # ms: the kernel on a quiet machine
HOG = 4.0  # ms: the kernel sharing its core with three busy processes


def _reader(kernel_ms):
    """A ``read()`` that replays scripted kernel readings."""
    state = {"i": 0}

    def read():
        i = min(state["i"], len(kernel_ms) - 1)
        state["i"] += 1
        return Reading(kernel_ms[i], kernel_ms[i] / 1.2)

    return read


def _run(n, times, kernel_ms, max_spare=0):
    def run_one(index):
        return {"seconds": times[index], "per_s": 1.0 / times[index]}

    return slices.run_guarded(n, run_one, _reader(kernel_ms), max_spare=max_spare)


def test_quiet_run_is_all_clean_and_reports_the_plain_median():
    times = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0]
    out = slices.reduce(_run(6, times, [QUIET] * 7), 6)
    assert out["slices_clean"] == 6 and out["slices_disturbed"] == 0 and not out["noisy"]
    assert out["medians"]["seconds"] == statistics.median(times)
    assert out["medians"]["per_s"] == statistics.median(1.0 / t for t in times)
    assert out["samples"] == 6 and out["calibration_ms"] == QUIET
    assert abs(out["slowdown"] - 1.2) < 1e-12


def test_background_flutter_below_the_ratio_disturbs_nothing():
    kernel = [QUIET, 1.75 * QUIET, QUIET, 2.7 * QUIET, QUIET, QUIET]
    done = _run(5, [1.0] * 5, kernel)
    assert all(s.clean for s in done)


def test_disturbed_episode_does_not_move_the_median():
    quiet = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.01, 0.99]
    reference = slices.reduce(_run(8, quiet, [QUIET] * 9), 8)["medians"]["seconds"]
    # Slices 2-4 run 1.5x slower while the kernel reads 4 ms around them.
    times = list(quiet)
    kernel = [QUIET] * 9
    for i in (2, 3, 4):
        times[i] *= 1.5
    kernel[3] = kernel[4] = HOG
    done = _run(8, times, kernel)
    out = slices.reduce(done, 8)
    assert [s.clean for s in done] == [True, True, False, False, False, True, True, True]
    assert out["samples"] == 5
    assert abs(out["medians"]["seconds"] - reference) <= 0.011
    # The plain median over all eight slices would have moved further.
    assert statistics.median(times) - reference > 0.011


def test_spare_slices_are_appended_while_fewer_than_planned_are_clean():
    times = [1.0] * 12
    kernel = [QUIET, QUIET, HOG] + [QUIET] * 10
    done = _run(6, times, kernel, max_spare=3)
    # Slices 1 and 2 touch the 4 ms reading; two spares restore six clean ones.
    assert len(done) == 8
    assert [s.planned for s in done] == [True] * 6 + [False] * 2
    assert sum(s.clean for s in done) == 6
    # No spare is run when nothing was disturbed, nor beyond max_spare.
    assert len(_run(6, times, [QUIET] * 13, max_spare=3)) == 6
    assert len(_run(6, times, [QUIET] + [HOG, QUIET] * 10, max_spare=3)) == 9


def test_noisy_flips_at_two_thirds_of_the_planned_slices():
    n = 9  # two thirds = 6
    for disturbed, noisy in ((3, False), (4, True)):
        done = _run(n, [1.0] * n, [QUIET] * (n + 1))
        for s in done[:disturbed]:
            s.kernel_after_ms = HOG
        out = slices.reduce(done, n)
        assert out["slices_clean"] == n - disturbed
        assert out["noisy"] is noisy


def test_the_median_is_over_clean_slices_only_however_few():
    done = _run(4, [1.0, 2.0, 3.0, 4.0], [QUIET, QUIET, HOG, HOG, HOG])
    out = slices.reduce(done, 4)
    assert out["slices_clean"] == 1 and out["noisy"]
    assert out["samples"] == 1 and out["medians"]["seconds"] == 1.0
    # With no clean slice at all there is nothing better than every slice.
    for s in done:
        s.kernel_before_ms, s.kernel_after_ms = QUIET, HOG
    out = slices.reduce(done, 4)
    assert out["slices_clean"] == 0 and out["samples"] == 4
    assert out["medians"]["seconds"] == 2.5


def test_after_planned_runs_once_between_planned_and_spare_slices():
    calls = []
    slices.run_guarded(
        3, lambda i: calls.append(i) or {}, _reader([QUIET, HOG] + [QUIET] * 5),
        max_spare=2, after_planned=lambda: calls.append("quality"),
    )
    assert calls == [0, 1, 2, "quality", 3, 4]


def test_calibrator_reads_a_positive_kernel_time():
    reading = Calibrator().read()
    assert 0 < reading.fastest_ms <= reading.kernel_ms < 1000
