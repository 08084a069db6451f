#!/usr/bin/env python3
"""One command for the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload serve_scan --seed 3 --seconds 15 --trace 0

runs one workload in this process, checks its outputs, and prints as the
last line of standard output one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's bookkeeping (clean and disturbed slices, ``noisy``, sample counts,
per-slice values).  ``--trace 1`` is the separate, shorter traced run that
prints the per-layer metrics and writes ``out/trace_<workload>.json``.
``--workload all`` runs the four workloads, each in a fresh process.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
# The benchmark is the package ``e2e``; the program is ``repro`` under src/.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.getcwd()) != HERE]
sys.path[:0] = [os.path.join(REPO_ROOT, "src"), os.path.dirname(HERE)]
# One BLAS thread: on the 2-core box a second one buys no throughput and
# fights the generator and flusher threads for the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import gc  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from e2e import metrics, trace  # noqa: E402
from e2e.calibrate import Calibrator  # noqa: E402
from e2e.refresh import RefreshWorkload  # noqa: E402
from e2e.serve import ServeWorkload  # noqa: E402
from e2e.slices import reduce, run_guarded  # noqa: E402
from e2e.train import TrainWorkload  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
FACTORIES = {
    "train": TrainWorkload,
    "serve_scan": ServeWorkload,
    "serve_hot": ServeWorkload,
    "refresh": RefreshWorkload,
}
#: recall@50 below this means the program's answers are wrong, not slow
RECALL_FLOOR = {"train": 0.3, "serve_scan": 0.98, "serve_hot": 0.98, "refresh": 0.95}
#: the smoke catalogs are too small for the default nprobe to hold the full floors
SMOKE_FLOOR_SCALE = 0.6
#: which workload's ledger covers which layers (one smoke fixture per group)
LEDGER_GROUP = {"train": "train", "serve_scan": "serving", "serve_hot": "serving",
                "refresh": "lifecycle"}
SETUPS = 3
MIN_SLICES = 5
#: spares: up to a quarter of the planned slices (the issue's half does not fit the time cap)
SPARE_DIVISOR = 4
SMOKE_SLICES = 2
TRACE_SLICES = 2
#: traced serve_hot slices are a tenth the size: two spans per request add up
TRACE_REQUEST_SCALE = {"serve_hot": 0.1}


def _floor(name: str, size: str) -> float:
    return RECALL_FLOOR[name] * (SMOKE_FLOOR_SCALE if size == "smoke" else 1.0)


def _collected(run_one):
    """``run_one`` with the garbage of what came before collected first (untimed).

    Cyclic garbage waits for the collector; whether it is still there when
    the next slice allocates decides the peak RSS, which would be a coin toss.
    """
    def collected(index: int):
        gc.collect()
        return run_one(index)

    return collected


def _timed_setup(workload):
    def setup_once(_index: int):
        start = time.perf_counter()
        workload.setup()
        return {"setup_s": time.perf_counter() - start}

    return setup_once


def run_untraced(name: str, seed: int, seconds: float, size: str, workdir: str) -> dict:
    calibrator = Calibrator()
    workload = FACTORIES[name](name, seed, size, workdir)
    try:
        if size == "smoke":
            n_planned = SMOKE_SLICES
        else:
            n_planned = max(MIN_SLICES, round(seconds / workload.SLICE_SECONDS))
        # Three complete set-ups under the guard; the third serves the slices.
        setups = run_guarded(SETUPS, _collected(_timed_setup(workload)), calibrator.read)
        quality = {}
        slices = run_guarded(
            n_planned, _collected(workload.run_slice), calibrator.read,
            max_spare=n_planned // SPARE_DIVISOR if workload.SPARE_SLICES else 0,
            after_planned=lambda: quality.update(recall_at_50=workload.finish()),
        )
    finally:
        workload.close()
    timing = reduce(slices, n_planned)
    setup = reduce(setups, SETUPS)
    values = dict(timing["medians"])
    values["setup_s"] = setup["medians"]["setup_s"]
    values["recall_at_50"] = quality["recall_at_50"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "workload": name, "seed": seed, "size": size, "slices_planned": n_planned,
        "slices_run": len(slices),
        "slices_clean": timing["slices_clean"],
        "slices_disturbed": timing["slices_disturbed"],
        "noisy": timing["noisy"],
        "samples": {"timing": timing["samples"], "setup_s": setup["samples"]},
        "calibration_ms": timing["calibration_ms"],
        "slowdown": timing["slowdown"],
        "values": {metric: values[metric] for metric in metrics.UNTRACED},
        "per_slice": [
            dict(s.values, clean=s.clean, slowdown=s.slowdown,
                 kernel_ms=[s.kernel_before_ms, s.kernel_after_ms])
            for s in setups + slices
        ],
    }
    if name == "train":
        detail["losses"] = workload.losses
    return {
        "correct": workload.failed == 0 and values["recall_at_50"] >= _floor(name, size),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics.with_units(values, metrics.END_TO_END),
        "detail": detail,
        "request_log": workload.request_log,
    }


def run_traced(name: str, seed: int, size: str, workdir: str) -> dict:
    """Two untraced then two traced slices, then the whole per-layer ledger.

    The chosen workload's layers are measured on its own fixture; the other
    layers on their smoke fixtures, so every traced run prints every
    per-layer metric.
    """
    calibrator = Calibrator()
    recorder = trace.SpanRecorder()
    workload = FACTORIES[name](name, seed, size, workdir)
    others = []
    try:
        workload.request_scale = TRACE_REQUEST_SCALE.get(name, 1.0) if size == "full" else 1.0
        workload.setup()
        readings = [calibrator.read()]
        plain = [workload.run_slice(i) for i in range(TRACE_SLICES)]
        readings.append(calibrator.read())
        workload.attach(recorder)
        traced = []
        for i in range(TRACE_SLICES):
            with recorder.operation(f"{name}.slice", op=i):
                traced.append(workload.run_slice(TRACE_SLICES + i, traced=True))
        readings.append(calibrator.read())
        recall = workload.finish()
        share = trace.attributed_share(recorder.spans)

        layer = {}
        for other_name in ("train", "serve_scan", "refresh"):
            if LEDGER_GROUP[other_name] == LEDGER_GROUP[name]:
                continue
            other = FACTORIES[other_name](other_name, seed, "smoke", workdir)
            others.append(other)
            other.setup()
            layer.update(other.ledger(recorder))
        layer.update(workload.ledger(recorder))
    finally:
        workload.close()
        for other in others:
            other.close()

    def mean_throughput(rows):
        return sum(row["throughput_per_s"] for row in rows) / len(rows)

    # The untraced values that are not end-to-end metrics, from the two plain slices.
    for metric in plain[0]:
        layer[metric] = statistics.median(row[metric] for row in plain)
    layer["recall_at_50"] = recall
    layer["bench.calibration_ms"] = min(r.kernel_ms for r in readings)
    layer["bench.trace_overhead_ratio"] = mean_throughput(traced) / mean_throughput(plain)
    layer["bench.attributed_share"] = share
    if share < 0.9:
        print(f"finding: only {share:.2f} of {name}'s slice time is inside a traced call",
              file=sys.stderr)

    path = os.path.join(OUT_DIR, f"trace_{name}.json")
    trace.write(path, recorder.spans, {"workload": name, "seed": seed, "per_layer": layer})
    attempted = workload.attempted + sum(o.attempted for o in others)
    failed = workload.failed + sum(o.failed for o in others)
    return {
        "correct": failed == 0 and recall >= _floor(name, size)
        and not trace.orphans(recorder.spans),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.with_units(layer, metrics.PER_LAYER),
        "detail": {"workload": name, "seed": seed, "size": size, "trace_file": path,
                   "spans": len(recorder.spans), "layers": trace.layer_table(recorder.spans)},
        "spans": recorder.spans,
    }


def run_one(name: str, seed: int, seconds: float, traced: bool, size: str) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work_", dir=OUT_DIR)
    try:
        if traced:
            return run_traced(name, seed, size, workdir)
        return run_untraced(name, seed, seconds, size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _print_result(report: dict) -> None:
    print(json.dumps({"detail": report["detail"]}))
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))


def run_all(args) -> int:
    """Each workload in a fresh process; the last line combines them."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in metrics.WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if not lines:
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] = combined["correct"] and result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(metrics.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the measured phase on the reference box")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny catalogs and two slices (what the tests run)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                     "smoke" if args.smoke else "full")
    _print_result(report)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
