#!/usr/bin/env python3
"""Do two sets of runs of the same code agree within the benchmark's bounds?

    python3 benchmarks/e2e/agree.py --runs 10 > benchmarks/e2e/AGREEMENT.md

Runs every workload ``--runs`` times per set for two sets, one after the
other, each run in a fresh process with its own seed (the same seeds in
both sets), workloads interleaved across repetitions so a disturbed minute
is spread over all of them.  Prints, per workload and metric, each set's
median and quartiles, the spread (inter-quartile distance over the median)
and the gap between the two medians.  An end-to-end metric whose gap is
larger than its bound, in either direction, disagrees (exit code 1, as for
a run with a wrong output); one whose spread is wider than its bound is
*unresolved*: the sets cannot tell a change of that size from noise.  Sets
containing a ``noisy`` run are not compared (exit code 2).  The values a
run measures besides the end-to-end metrics are printed without a verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from e2e import metrics  # noqa: E402

RUN = os.path.join(HERE, "run.py")
FIRST_SEED = 1


def one_run(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} printed no result (exit {done.returncode})")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def verdict(spreads, gap: float, bound: float) -> str:
    if abs(gap) > bound:
        return "NO"
    return "unresolved" if max(spreads) > bound else "yes"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per workload per set")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workloads = list(metrics.WORKLOADS)

    sets = []
    for set_id in range(2):
        results = {name: [] for name in workloads}
        for repetition in range(args.runs):
            for name in workloads:
                seed = FIRST_SEED + repetition
                results[name].append(one_run(name, seed, args.seconds, args.smoke))
                print(f"set {set_id + 1} run {repetition + 1}/{args.runs} {name} done",
                      file=sys.stderr)
        sets.append(results)

    every = [run for results in sets for runs in results.values() for run in runs]
    noisy = sum(run["detail"]["noisy"] for run in every)
    wrong = sum(not run["correct"] for run in every)
    print("# Agreement of two sets of runs of the same code\n")
    print(f"{args.runs} runs per workload per set, `--seconds {args.seconds:g}`, seeds "
          f"{FIRST_SEED}..{FIRST_SEED + args.runs - 1} in both sets, the second set after "
          f"the first; {noisy} of {len(every)} runs were `noisy`, {wrong} had a wrong "
          "output.\n")
    print("Spread = (Q3 - Q1) / median over a set's runs; gap = how much worse the second "
          "set's median is than the first's (negative = better).  An end-to-end metric "
          "agrees when the size of the gap is within its bound, and is unresolved when a "
          "spread is wider than the bound; the rows without a bound are the other values "
          "a run measures.\n")
    print("| workload | metric | unit | bound | set 1 Q1 / median / Q3 | spread 1 "
          "| set 2 Q1 / median / Q3 | spread 2 | gap | agrees |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    verdicts = []
    for name in workloads:
        for metric, (unit, better) in metrics.UNTRACED.items():
            bound = metrics.END_TO_END[metric][2] if metric in metrics.END_TO_END else None
            cells, medians, spreads = [], [], []
            for results in sets:
                values = [run["detail"]["values"][metric] for run in results[name]]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                medians.append(q2)
                spreads.append((q3 - q1) / q2)
                cells.append(f"{q1:.5g} / {q2:.5g} / {q3:.5g}")
            gap = worse_by(medians[0], medians[1], better)
            agrees = "" if bound is None else verdict(spreads, gap, bound)
            verdicts.append(agrees)
            shown = "" if bound is None else f"{bound:g}"
            print(f"| {name} | {metric} | {unit} | {shown} | {cells[0]} | {spreads[0]:.3f} "
                  f"| {cells[1]} | {spreads[1]:.3f} | {gap:+.3f} | {agrees} |")
    print()
    if wrong:
        print(f"{wrong} runs had a wrong output.")
        return 1
    if noisy:
        print("Not compared: the sets contain noisy runs.")
        return 2
    print(f"Of the (workload, end-to-end metric) pairs {verdicts.count('yes')} agree, "
          f"{verdicts.count('unresolved')} are unresolved and {verdicts.count('NO')} disagree.")
    return 1 if "NO" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
