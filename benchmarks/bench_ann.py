"""Approximate-retrieval benchmark: the recall-gated nprobe sweep.

Measures bulk top-50 retrieval for a population of users against a
production-scale catalog under three regimes:

* ``exact`` — the optimized exact path (one :class:`BatchRuntime` serial
  pass over the full catalog), measured **in-run** so every speedup below
  is against this machine, not a stale number;
* ``nprobe{N}_exact`` — the IVF two-stage search probing ``N`` lists with
  the exact fine-stage scorer, swept across operating points;
* ``nprobe{N}_pq`` — the same probe with product-quantized ADC candidate
  scoring followed by the mandatory exact re-rank (16x item-side memory
  reduction vs the f32 factors).

Each arm reports users/sec, speedup vs the in-run exact baseline, and
recall@50 **and** recall@10 against the exact rankings (via
:func:`repro.eval.ann.ann_recall_at_k`).

On top of the sweep, the full protocol runs the **tiered 1M-item
layout**: a synthetic 1,000,000-item clustered catalog is built with PQ
fine scoring (``train_sample`` + centroid-shift early stopping keep the
build tractable), saved as an ``include_items`` dir archive, and
reloaded through :class:`~repro.serving.ann.TieredIVFIndex` under a
declared memory ceiling — the run fails unless the reported hot tier
stays under the ceiling and recall clears the floor.

The index is a synthetic *clustered* factorization in PUP's two-branch
layout (global + small side branch with an item constant): timing does not
depend on weight values, but IVF recall does depend on the embedding
geometry, and trained recommendation catalogs cluster (popularity,
category, price structure) — so items are drawn from latent cluster
centers rather than i.i.d. noise.  The construction is deterministic given
the seed, which is what makes the smoke gate's recall floor stable in CI.

Committed gates (checked before writing ``BENCH_ann.json``, re-checked by
``--smoke`` in CI):

* the default operating point (``build_ivf`` defaults, exact fine stage)
  must reach **recall@50 >= 0.95**, **recall@10 >= 0.95**, and **>= 3x**
  the in-run exact baseline;
* the PQ arm at the default probe must hold the same recall floors after
  its exact re-rank, at **>= 16x** item-side memory reduction vs f32;
* full probe (exact fine stage) must reproduce the exact rankings
  **bit-identically**;
* the tiered layout must keep its resident (hot) bytes under the declared
  memory ceiling while clearing the recall floor;
* ``--smoke`` fails if the default operating point's speedup falls more
  than 30% below the committed value (speedups are already normalized by
  the in-run baseline, so runner speed cancels out), recall dips below
  the floor, or the scaled-down tiered run breaks its ceiling.

Usage::

    python benchmarks/bench_ann.py           # full protocol, rewrites
                                             # BENCH_ann.json
    python benchmarks/bench_ann.py --smoke   # quick CI check against the
                                             # committed baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Dict, Optional

import numpy as np

from repro.core.base import ScoreBranch
from repro.eval.ann import ann_recall_at_k
from repro.runtime import BatchRuntime, RuntimeConfig
from repro.serving.ann import TieredIndexConfig, TieredIVFIndex, build_ivf
from repro.serving.index import EmbeddingIndex

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_ann.json")

K = 50
K_SMALL = 10

#: acceptance gates for the gated operating points
RECALL_FLOOR = 0.95
SPEEDUP_FLOOR = 3.0

#: PQ must compress the f32 item factors by at least this much
MEMORY_REDUCTION_FLOOR = 16.0

#: CI gate: fail when the default-op speedup drops below (1 - this) of committed
REGRESSION_TOLERANCE = 0.30

#: the tiered 1M-item protocol (full run only; smoke re-runs a scaled copy)
TIERED_PROTOCOL = {
    "n_users": 8000,
    "n_items": 1_000_000,
    "evaluated_users": 256,
    "memory_ceiling_bytes": 128 * 2**20,
    "train_sample": 200_000,
}
TIERED_SMOKE_PROTOCOL = {
    "n_users": 2000,
    "n_items": 120_000,
    "evaluated_users": 400,
    "memory_ceiling_bytes": 16 * 2**20,
    "train_sample": 40_000,
}


# ----------------------------------------------------------------------
# Synthetic clustered catalog in PUP's two-branch layout
# ----------------------------------------------------------------------
def clustered_index(
    n_users: int, n_items: int, dim: int = 56, side_dim: int = 8,
    n_clusters: int = 64, seed: int = 0,
) -> EmbeddingIndex:
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, dim))
    item_main = (
        centers[rng.integers(n_clusters, size=n_items)]
        + 0.35 * rng.normal(size=(n_items, dim))
    ).astype(np.float32)
    user_main = (
        centers[rng.integers(n_clusters, size=n_users)]
        + 0.5 * rng.normal(size=(n_users, dim))
    ).astype(np.float32)
    item_side = (0.3 * rng.normal(size=(n_items, side_dim))).astype(np.float32)
    user_side = (0.3 * rng.normal(size=(n_users, side_dim))).astype(np.float32)
    item_const = (0.1 * rng.normal(size=n_items)).astype(np.float32)
    branches = [
        ScoreBranch(user=user_main, item=item_main),
        ScoreBranch(user=user_side, item=item_side, item_const=item_const),
    ]
    counts = rng.integers(3, 15, size=n_users)
    indptr = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(
        [np.sort(rng.choice(n_items, count, replace=False)) for count in counts]
    )
    return EmbeddingIndex(
        branches,
        item_categories=np.zeros(n_items, dtype=np.int64),
        item_price_levels=np.zeros(n_items, dtype=np.int64),
        n_price_levels=5,
        n_categories=1,
        exclude_indptr=indptr,
        exclude_indices=indices,
        item_popularity=np.ones(n_items),
        model_name="bench_ann_clustered",
    )


def _best_of(fn, reps: int):
    """(best seconds, last result) over ``reps`` timed passes + 1 warmup."""
    fn()
    best = np.inf
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# ----------------------------------------------------------------------
def run_benchmark(
    n_users: int, n_items: int, eval_users: int, reps: int,
    probe_factors=(1, 2), arm_names: Optional[set] = None,
) -> Dict:
    index = clustered_index(n_users, n_items, seed=0)
    users = np.arange(eval_users)
    csr = (index.exclude_indptr, index.exclude_indices)

    built = time.perf_counter()
    ivf = build_ivf(index, seed=0, pq=True)
    build_seconds = time.perf_counter() - built

    runtime = BatchRuntime(index, RuntimeConfig(), exclude_csr=csr)
    try:
        seconds_exact, (_, exact_ids, _) = _best_of(
            lambda: runtime.rank(users, K), reps
        )
    finally:
        runtime.close()
    exact_rankings = {int(user): exact_ids[row] for row, user in enumerate(users)}
    arms: Dict[str, Dict] = {
        "exact": {
            "users_per_sec": eval_users / seconds_exact,
            "ms_per_pass": seconds_exact * 1e3,
            "recall_at_50": 1.0,
            "recall_at_10": 1.0,
            "speedup_vs_exact": 1.0,
        }
    }
    print(
        f"  {'exact':<20} {arms['exact']['users_per_sec']:>9,.0f} users/s"
        f"  ({seconds_exact*1e3:7.1f} ms/pass)  recall@{K}=1.000"
    )

    # In-run parity proof: full probe (exact fine stage) must reproduce the
    # exact rankings bitwise.  The scorer is pinned because pq is the
    # index's default fine scorer once PQ codebooks are attached.
    full_ids, _ = ivf.search(
        users, K, nprobe=ivf.n_lists, scorer="exact", exclude_csr=csr
    )
    if not np.array_equal(full_ids, exact_ids):
        print("FAIL: full-probe IVF search diverges from exact rankings", file=sys.stderr)
        raise SystemExit(1)

    sweep = []
    for factor in probe_factors:
        nprobe = min(ivf.nprobe * factor, ivf.n_lists)
        for scorer in ("exact", "pq"):
            sweep.append((f"nprobe{nprobe}_{scorer}", nprobe, scorer))
    for name, nprobe, scorer in sweep:
        if arm_names is not None and name not in arm_names:
            continue
        seconds, (ids, _) = _best_of(
            lambda: ivf.search(users, K, nprobe=nprobe, scorer=scorer, exclude_csr=csr),
            reps,
        )
        rankings = {int(user): ids[row] for row, user in enumerate(users)}
        recall = ann_recall_at_k(exact_rankings, rankings, K)
        recall_small = ann_recall_at_k(exact_rankings, rankings, K_SMALL)
        arms[name] = {
            "nprobe": int(nprobe),
            "scorer": scorer,
            "users_per_sec": eval_users / seconds,
            "ms_per_pass": seconds * 1e3,
            "recall_at_50": recall,
            "recall_at_10": recall_small,
            "speedup_vs_exact": seconds_exact / seconds,
        }
        print(
            f"  {name:<20} {arms[name]['users_per_sec']:>9,.0f} users/s"
            f"  ({seconds*1e3:7.1f} ms/pass)  recall@{K}={recall:.3f}"
            f"  recall@{K_SMALL}={recall_small:.3f}"
            f"  {arms[name]['speedup_vs_exact']:5.2f}x"
        )

    item_factors_bytes = sum(b.item.nbytes for b in index.branches)
    pq_codes_bytes = ivf.pq.memory_bytes()
    return {
        "catalog": {
            "n_users": n_users, "n_items": n_items, "evaluated_users": eval_users,
            "layout": "clustered two-branch float32 (PUP shape), seed 0",
        },
        "ivf": {
            "n_lists": ivf.n_lists,
            "default_nprobe": ivf.nprobe,
            "build_seconds": build_seconds,
            "pq_codes_bytes": pq_codes_bytes,
            "item_factors_bytes": item_factors_bytes,
            "memory_reduction_vs_f32": item_factors_bytes / pq_codes_bytes,
        },
        "protocol": {
            "k": K, "exclude_train": True,
            "warmup_passes": 1, "timed_passes": reps, "timing": "best of timed passes",
            "parity": "full-probe rankings bit-identical to exact (asserted in-run)",
        },
        "default_operating_point": f"nprobe{ivf.nprobe}_exact",
        "pq_operating_point": f"nprobe{ivf.nprobe}_pq",
        "arms": arms,
    }


# ----------------------------------------------------------------------
def run_tiered(protocol: Dict, reps: int) -> Dict:
    """The hot/cold tiered layout under a declared memory ceiling.

    Builds a clustered catalog at ``protocol`` scale with PQ fine scoring,
    round-trips it through an ``include_items`` dir archive, and reloads
    it tiered.  Reports whether the resident hot tier held the ceiling
    plus recall/speed at the default operating point.
    """
    n_items = protocol["n_items"]
    eval_users = protocol["evaluated_users"]
    ceiling = protocol["memory_ceiling_bytes"]
    index = clustered_index(protocol["n_users"], n_items, seed=0)
    users = np.arange(eval_users)
    csr = (index.exclude_indptr, index.exclude_indices)

    built = time.perf_counter()
    ivf = build_ivf(
        index, seed=0, pq=True,
        tol=1e-3, train_sample=protocol["train_sample"],
    )
    build_seconds = time.perf_counter() - built

    runtime = BatchRuntime(index, RuntimeConfig(), exclude_csr=csr)
    try:
        seconds_exact, (_, exact_ids, _) = _best_of(
            lambda: runtime.rank(users, K), reps
        )
    finally:
        runtime.close()
    exact_rankings = {int(user): exact_ids[row] for row, user in enumerate(users)}

    with tempfile.TemporaryDirectory() as tmp:
        path = ivf.save(os.path.join(tmp, "ann"), format="dir", include_items=True)
        tiered = TieredIVFIndex.load(
            path, index, TieredIndexConfig(memory_ceiling_bytes=ceiling)
        )
        report = tiered.memory_report()
        seconds, (ids, _) = _best_of(
            lambda: tiered.search(users, K, exclude_csr=csr), reps
        )
    rankings = {int(user): ids[row] for row, user in enumerate(users)}
    recall = ann_recall_at_k(exact_rankings, rankings, K)
    recall_small = ann_recall_at_k(exact_rankings, rankings, K_SMALL)
    result = {
        "protocol": dict(protocol),
        "kind": report["kind"],
        "n_lists": int(tiered.n_lists),
        "hot_lists": report["hot_lists"],
        "nprobe": int(tiered.nprobe),
        "build_seconds": build_seconds,
        "resident_hot_bytes": report["tiers"]["hot"],
        "paged_cold_bytes": report["tiers"]["cold"],
        "ceiling_held": bool(report["tiers"]["hot"] <= ceiling),
        "users_per_sec": eval_users / seconds,
        "speedup_vs_exact": seconds_exact / seconds,
        "exact_users_per_sec": eval_users / seconds_exact,
        "recall_at_50": recall,
        "recall_at_10": recall_small,
    }
    print(
        f"  tiered {report['kind']:<13} {result['users_per_sec']:>9,.0f} users/s"
        f"  ({seconds*1e3:7.1f} ms/pass)  recall@{K}={recall:.3f}"
        f"  recall@{K_SMALL}={recall_small:.3f}  {result['speedup_vs_exact']:5.2f}x"
    )
    print(
        f"  resident {report['tiers']['hot'] / 2**20:,.1f} MB"
        f" (ceiling {ceiling / 2**20:,.0f} MB,"
        f" {report['hot_lists']}/{tiered.n_lists} lists hot),"
        f" cold {report['tiers']['cold'] / 2**20:,.1f} MB mmap-paged:"
        f" {'held' if result['ceiling_held'] else 'EXCEEDED'}"
    )
    return result


def _gate_arm(report: Dict, arm_name: str, what: str) -> bool:
    """True when the arm clears both recall floors; prints failures."""
    arm = report["arms"][arm_name]
    ok = True
    for key, k in (("recall_at_50", K), ("recall_at_10", K_SMALL)):
        if arm[key] < RECALL_FLOOR:
            print(
                f"FAIL: {what} ({arm_name}) recall@{k} {arm[key]:.3f} "
                f"< {RECALL_FLOOR}",
                file=sys.stderr,
            )
            ok = False
    return ok


def _gate_tiered(tiered: Dict) -> bool:
    ok = True
    if not tiered["ceiling_held"]:
        print(
            f"FAIL: tiered resident bytes {tiered['resident_hot_bytes']:,} exceed "
            f"the declared ceiling {tiered['protocol']['memory_ceiling_bytes']:,}",
            file=sys.stderr,
        )
        ok = False
    if tiered["recall_at_50"] < RECALL_FLOOR:
        print(
            f"FAIL: tiered recall@{K} {tiered['recall_at_50']:.3f} < {RECALL_FLOOR}",
            file=sys.stderr,
        )
        ok = False
    return ok


def _default_arm(report: Dict) -> Dict:
    return report["arms"][report["default_operating_point"]]


def cmd_full(reps: int) -> int:
    print(f"full protocol (48k-item clustered catalog, best of {reps} passes):")
    report = run_benchmark(n_users=4000, n_items=48_000, eval_users=2000, reps=reps)
    # The smoke catalog must be large enough that the speedup is pruning-
    # dominated rather than dispatch-overhead-dominated, or the CI ratio
    # gets noisy on shared runners; 24k items keeps the re-measure under a
    # minute while leaving a stable margin over the regression floor.
    print(f"smoke protocol (24k-item clustered catalog, best of {reps} passes):")
    smoke = run_benchmark(n_users=2000, n_items=24_000, eval_users=800, reps=reps)
    print(
        f"tiered protocol ({TIERED_PROTOCOL['n_items']:,}-item catalog, "
        f"{TIERED_PROTOCOL['memory_ceiling_bytes'] / 2**20:,.0f} MB ceiling):"
    )
    tiered = run_tiered(TIERED_PROTOCOL, reps=1)
    print(
        f"tiered smoke protocol ({TIERED_SMOKE_PROTOCOL['n_items']:,}-item "
        f"catalog, {TIERED_SMOKE_PROTOCOL['memory_ceiling_bytes'] / 2**20:,.0f} "
        "MB ceiling):"
    )
    tiered_smoke = run_tiered(TIERED_SMOKE_PROTOCOL, reps=reps)

    failed = False
    if not _gate_arm(report, report["default_operating_point"], "default operating point"):
        failed = True
    if not _gate_arm(report, report["pq_operating_point"], "PQ operating point"):
        failed = True
    default = _default_arm(report)
    if default["speedup_vs_exact"] < SPEEDUP_FLOOR:
        print(
            f"FAIL: default operating point speedup {default['speedup_vs_exact']:.2f}x "
            f"< {SPEEDUP_FLOOR}x",
            file=sys.stderr,
        )
        failed = True
    reduction = report["ivf"]["memory_reduction_vs_f32"]
    if reduction < MEMORY_REDUCTION_FLOOR:
        print(
            f"FAIL: PQ memory reduction {reduction:.1f}x < "
            f"{MEMORY_REDUCTION_FLOOR}x vs the f32 item factors",
            file=sys.stderr,
        )
        failed = True
    if not _gate_tiered(tiered) or not _gate_tiered(tiered_smoke):
        failed = True
    if failed:
        print("not committing numbers", file=sys.stderr)
        return 1

    payload = {
        "benchmark": "approximate_retrieval",
        **report,
        "gates": {
            "recall_floor": RECALL_FLOOR,
            "speedup_floor": SPEEDUP_FLOOR,
            "memory_reduction_floor": MEMORY_REDUCTION_FLOOR,
            "regression_tolerance": REGRESSION_TOLERANCE,
        },
        "tiered": tiered,
        "smoke_reference": {
            "catalog": smoke["catalog"],
            "default_operating_point": smoke["default_operating_point"],
            "pq_operating_point": smoke["pq_operating_point"],
            "speedup_vs_exact": _default_arm(smoke)["speedup_vs_exact"],
            "recall_at_50": _default_arm(smoke)["recall_at_50"],
            "pq_recall_at_50": smoke["arms"][smoke["pq_operating_point"]]["recall_at_50"],
            "exact_users_per_sec": smoke["arms"]["exact"]["users_per_sec"],
            "tiered": tiered_smoke,
        },
    }
    with open(BENCH_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"\ndefault operating point ({report['default_operating_point']}): "
        f"{default['speedup_vs_exact']:.2f}x exact at recall@{K}="
        f"{default['recall_at_50']:.3f}; PQ {reduction:.1f}x less item memory "
        f"at recall@{K}="
        f"{report['arms'][report['pq_operating_point']]['recall_at_50']:.3f}"
    )
    print(f"wrote {BENCH_PATH}")
    return 0


def cmd_smoke(reps: int) -> int:
    """CI check: re-measure the smoke protocol, compare to the committed file.

    The speedup is a ratio of two in-run measurements (ANN vs exact on the
    same machine), so no machine-speed normalization is needed; the gates
    are that it has not regressed more than the tolerance against the
    committed smoke speedup, that recall@50 still clears the floor on both
    the exact and PQ arms, and that the scaled-down tiered run still holds
    its declared memory ceiling.
    """
    if not os.path.exists(BENCH_PATH):
        print(f"missing committed baseline {BENCH_PATH}; run without --smoke first", file=sys.stderr)
        return 2
    with open(BENCH_PATH) as handle:
        committed = json.load(handle)
    reference = committed["smoke_reference"]
    catalog = reference["catalog"]

    print(f"smoke protocol ({catalog['n_items']}-item catalog, best of {reps} passes):")
    report = run_benchmark(
        n_users=catalog["n_users"], n_items=catalog["n_items"],
        eval_users=catalog["evaluated_users"], reps=reps,
        probe_factors=(1,),
        arm_names={
            reference["default_operating_point"],
            reference["pq_operating_point"],
        },
    )
    if report["default_operating_point"] != reference["default_operating_point"]:
        print(
            f"committed baseline was measured at "
            f"{reference['default_operating_point']} but the current defaults "
            f"resolve to {report['default_operating_point']}; regenerate "
            f"BENCH_ann.json (run without --smoke)",
            file=sys.stderr,
        )
        return 2
    default = _default_arm(report)
    pq_arm = report["arms"][report["pq_operating_point"]]

    tiered_protocol = reference["tiered"]["protocol"]
    print(
        f"tiered smoke protocol ({tiered_protocol['n_items']:,}-item catalog, "
        f"{tiered_protocol['memory_ceiling_bytes'] / 2**20:,.0f} MB ceiling):"
    )
    tiered = run_tiered(tiered_protocol, reps=reps)

    floor = (1.0 - REGRESSION_TOLERANCE) * reference["speedup_vs_exact"]
    print(
        f"\ndefault operating point: {default['speedup_vs_exact']:.2f}x exact "
        f"(committed {reference['speedup_vs_exact']:.2f}x; floor {floor:.2f}x), "
        f"recall@{K}={default['recall_at_50']:.3f}, "
        f"pq recall@{K}={pq_arm['recall_at_50']:.3f} (floor {RECALL_FLOOR})"
    )
    failed = False
    if default["recall_at_50"] < RECALL_FLOOR:
        print(
            f"FAIL: recall@{K} fell below the {RECALL_FLOOR} floor",
            file=sys.stderr,
        )
        failed = True
    if pq_arm["recall_at_50"] < RECALL_FLOOR:
        print(
            f"FAIL: PQ-arm recall@{K} fell below the {RECALL_FLOOR} floor",
            file=sys.stderr,
        )
        failed = True
    if default["speedup_vs_exact"] < floor:
        print(
            f"FAIL: speedup regressed more than {REGRESSION_TOLERANCE:.0%} "
            "against the committed BENCH_ann.json baseline",
            file=sys.stderr,
        )
        failed = True
    if not _gate_tiered(tiered):
        failed = True
    if failed:
        return 1
    print("PASS")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick regression check against the committed BENCH_ann.json",
    )
    parser.add_argument("--reps", type=int, default=None, help="timed passes per arm")
    args = parser.parse_args()
    reps = args.reps if args.reps is not None else (3 if args.smoke else 5)
    return cmd_smoke(reps) if args.smoke else cmd_full(reps)


if __name__ == "__main__":
    raise SystemExit(main())
