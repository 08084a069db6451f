"""What a refresh round computes, pinned to what it computed before the
round was made cheaper.

``refresh_pins.json`` was recorded at commit ``a881bfb`` — the parent of the
per-array version store, the once-sorted price table and the per-level band
gate, before any source edit — by running this file as a script
(``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python <this file>`` prints the
table).  It covers what those changes promised not to move:

* ``fold/*`` — every array of ``fold_in``'s output index on two catalogs
  whose event streams add users and items, reprice and interact: float32
  factors with heavily duplicated prices and event prices reaching below
  and above the catalog's range, and a float64 index exported without raw
  prices;
* ``gates/planted`` — the whole ``run_gates(...).gates`` dict on a
  candidate probed at least twice per price level, behind an ANN index
  that leaks one out-of-band item into one level's filtered search;
* ``refresh/seed*`` — the ``refresh`` workload of ``benchmarks/e2e`` at
  full size: after set-up and five rounds, every array of the live version
  as ``load_version`` returns it, the journal digest, and each round's
  ``GateReport``.

A value that stops matching is a changed result, not an expectation to
re-record.
"""

import dataclasses
import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.core.base import ScoreBranch
from repro.lifecycle import GateConfig, fold_in, journal_digest, run_gates, simulate_events
from repro.serving.ann import build_ivf
from repro.serving.index import EmbeddingIndex

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
N_LEVELS = 5
ROUNDS = 5
REFRESH_SEEDS = (3, 5)


def digest(*arrays):
    sha = hashlib.sha256()
    for array in arrays:
        if array is None:
            sha.update(b"none")
            continue
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def index_digest(index):
    """Every array an index carries: branches, catalog columns, exclusion CSR."""
    arrays = []
    for branch in index.branches:
        arrays += [branch.user, branch.item, branch.item_const, branch.user_const]
    arrays += [
        index.item_categories, index.item_price_levels, index.item_raw_prices,
        index.item_popularity, index.exclude_indptr, index.exclude_indices,
        np.array([index.n_price_levels, index.n_categories]),
    ]
    return digest(*arrays)


def ann_digest(ann):
    return digest(ann.centroids, ann.list_indptr, ann.list_items)


def catalog(dtype, seed, priced, n_users=60, n_items=700):
    """A seeded two-branch index; ``priced`` prices sit on a 0.5 grid (many
    duplicates, exact midpoints), unpriced ones are exported without."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(16, 12))
    branches = [
        ScoreBranch(
            user=rng.normal(size=(n_users, 12)).astype(dtype),
            item=(
                centers[rng.integers(16, size=n_items)] + 0.35 * rng.normal(size=(n_items, 12))
            ).astype(dtype),
            user_const=(0.1 * rng.normal(size=n_users)).astype(dtype),
        ),
        ScoreBranch(
            user=rng.normal(size=(n_users, 6)).astype(dtype),
            item=(0.3 * rng.normal(size=(n_items, 6))).astype(dtype),
            item_const=(0.1 * rng.normal(size=n_items)).astype(dtype),
            weight=0.75,
        ),
    ]
    excluded = [
        np.sort(rng.choice(n_items, size=rng.integers(0, 12), replace=False))
        for _ in range(n_users)
    ]
    raw_prices = np.round(2.0 * (5.0 + 45.0 * rng.random(n_items))) / 2.0
    edges = np.quantile(raw_prices, np.linspace(0, 1, N_LEVELS + 1)[1:-1])
    return EmbeddingIndex(
        branches,
        item_categories=rng.integers(3, size=n_items),
        item_price_levels=np.searchsorted(edges, raw_prices),
        n_price_levels=N_LEVELS,
        n_categories=3,
        exclude_indptr=np.concatenate([[0], np.cumsum([len(row) for row in excluded])]),
        exclude_indices=np.concatenate(excluded),
        item_popularity=rng.integers(1, 9, size=n_items).astype(np.float64),
        item_raw_prices=raw_prices if priced else None,
    )


def churn(index, count, seed):
    """Adds, reprices and interactions; prices on the catalog's own 0.5 grid
    and a quarter-step finer, from below its cheapest to above its dearest."""
    events = simulate_events(
        index.n_users, index.n_items, count, seed=seed, n_categories=index.n_categories,
        new_item_rate=0.08, reprice_rate=0.2, price_range=(1.0, 60.0),
    )
    return [
        event if event.price is None
        else dataclasses.replace(event, price=round(4.0 * event.price) / 4.0)
        for event in events
    ]


FOLD_CASES = {
    "float32-duplicate-prices": ("float32", 77, True, 400, 1),
    "float64-no-raw-prices": ("float64", 78, False, 250, 2),
}


def folded(case):
    dtype, seed, priced, count, event_seed = FOLD_CASES[case]
    index = catalog(dtype, seed, priced)
    events = churn(index, count, event_seed)
    kinds = {event.kind for event in events}
    assert kinds == {"add_user", "add_item", "reprice", "interaction"}
    return index, events, fold_in(index, events)[0]


class LeakyANN:
    """A real IVF index, except that a filtered search admitting ``trigger``
    also returns ``leak`` — the fault the price-band gate exists to catch."""

    def __init__(self, ann, trigger, leak):
        self.ann, self.trigger, self.leak = ann, trigger, leak
        self.filtered_searches = 0

    def __getattr__(self, name):
        return getattr(self.ann, name)

    def search(self, users, k, candidate_mask=None, **kwargs):
        ids, scores = self.ann.search(users, k, candidate_mask=candidate_mask, **kwargs)
        if candidate_mask is not None:
            self.filtered_searches += 1
            if candidate_mask[self.trigger]:
                ids = ids.copy()
                ids[0, -1] = self.leak
        return ids, scores


def planted_gate_case():
    """A folded candidate, 3 probes on each of the 5 levels in a mixed order,
    and an ANN index that leaks a level-0 item into the level-2 band."""
    _index, _events, candidate = folded("float32-duplicate-prices")
    levels = candidate.item_price_levels
    per_level = [np.flatnonzero(levels == level)[:3] for level in range(N_LEVELS)]
    assert all(len(items) == 3 for items in per_level)
    probes = [int(items[i]) for i in range(3) for items in per_level]
    ann = LeakyANN(
        build_ivf(candidate, seed=0), trigger=int(per_level[2][0]), leak=int(per_level[0][0])
    )
    config = GateConfig(recall_users=32, parity_users=8, nprobe=ann.n_lists)
    return candidate, ann, config, probes


def refresh_rounds(seed, workdir):
    """Set-up and ``ROUNDS`` rounds of the benchmark's own ``refresh`` workload."""
    benchmarks = os.path.join(ROOT, "benchmarks")
    if benchmarks not in sys.path:
        sys.path.insert(0, benchmarks)
    from e2e.refresh import RefreshWorkload

    workload = RefreshWorkload("refresh", seed, "full", workdir)
    workload.setup()
    controller, reports = workload.controller, []
    promote = controller.promote

    def recording_promote(*args, **kwargs):
        promoted, report = promote(*args, **kwargs)
        reports.append(dataclasses.asdict(report))
        return promoted, report

    controller.promote = recording_promote
    for part in range(ROUNDS):
        workload.run_slice(part)
    assert workload.failed == 0 and len(reports) == ROUNDS
    store = controller.store
    index, ann = store.load_version(store.current())
    return {
        "version": store.current(),
        "index": index_digest(index),
        "ann": ann_digest(ann),
        "journal": journal_digest(store.journal_dir),
        "reports": reports,
    }


def all_pins(tmp_dir):
    for case in FOLD_CASES:
        yield f"fold/{case}", index_digest(folded(case)[2])
    candidate, ann, config, probes = planted_gate_case()
    yield "gates/planted", run_gates(candidate, ann, config, probe_items=probes).gates
    for seed in REFRESH_SEEDS:
        yield f"refresh/seed{seed}", refresh_rounds(seed, os.path.join(tmp_dir, f"seed{seed}"))


with open(os.path.join(HERE, "refresh_pins.json")) as _handle:
    PINS = json.load(_handle)


@pytest.fixture(scope="module")
def pins(tmp_path_factory):
    # Through JSON, as the recorded side went: tuples become lists, floats keep their bits.
    return json.loads(json.dumps(dict(all_pins(str(tmp_path_factory.mktemp("pins"))))))


def test_every_pinned_case_is_still_computed(pins):
    assert sorted(pins) == sorted(PINS)


@pytest.mark.parametrize("case", sorted(PINS))
def test_result_matches_the_parent(pins, case):
    assert pins[case] == PINS[case]


def test_the_planted_case_plants_what_it_says():
    gate = PINS["gates/planted"]["price_band"]
    assert gate["probed_items"] == gate["bands_searched"] == 3 * N_LEVELS
    assert len(gate["violations"]) == 3 and len(set(gate["violations"])) == 1
    assert "band [2,2] search returned out-of-band items" in gate["violations"][0]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(dict(all_pins(tmp)), indent=2))
