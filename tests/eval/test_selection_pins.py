"""Exact top-K selection, pinned to the ids it produced before selection and
exact rankings were made to run in bounded scratch.

``selection_pins.json`` was recorded at commit ``ed99306`` — the parent of
the row-blocked partition and the item-sharded ``exact_rankings``, before
any source edit — by running this file as a script
(``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python <this file>`` prints the
table).  Every input is tie-heavy on purpose: integer-valued scores in a
handful of levels, so the k-th score is shared by many entries in almost
every row, plus rows partly or wholly masked to ``-inf``.  It covers

* ``topk_indices_rows`` at k = 1, 50, n - 1 and n, float32 and float64;
* the ``topk_pairs_rows`` fast path (k << L) over shuffled item ids;
* IVF's ``_local_topk_set`` (as a set: the fine stage never reads its order);
* ``exact_rankings`` on a catalog wider than two item blocks, once with
  integer factors (ties straddle every shard boundary) and once with a
  continuous two-branch factorization, with and without exclusions.

A digest that stops matching is a changed result, not an expectation to
re-record.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.base import ScoreBranch
from repro.eval.ann import exact_rankings
from repro.eval.topk import NEG_INF, topk_indices_rows, topk_pairs_rows
from repro.serving.ann.ivf import _local_topk_set
from repro.serving.index import EmbeddingIndex

ROWS, WIDTH = 700, 1500
RANK_USERS, RANK_ITEMS, RANK_K = 64, 20_000, 50


def digest(*arrays):
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def tied_scores(dtype, seed, rows=ROWS, width=WIDTH, levels=4):
    """Integer scores in ``levels`` values; 40 % of entries in every fifth row
    and the whole of row 3 masked to ``-inf``."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, levels, size=(rows, width)).astype(dtype)
    masked_rows = np.arange(0, rows, 5)
    scores[masked_rows[:, None], np.flatnonzero(rng.random(width) < 0.4)[None, :]] = NEG_INF
    scores[3] = NEG_INF
    return scores


def rank_index(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "ties":
        branches = [
            ScoreBranch(
                user=rng.integers(-2, 3, size=(RANK_USERS, 4)).astype(np.float32),
                item=rng.integers(-2, 3, size=(RANK_ITEMS, 4)).astype(np.float32),
            )
        ]
    else:
        branches = [
            ScoreBranch(
                user=rng.normal(size=(RANK_USERS, 12)).astype(np.float32),
                item=rng.normal(size=(RANK_ITEMS, 12)).astype(np.float32),
                user_const=(0.1 * rng.normal(size=RANK_USERS)).astype(np.float32),
            ),
            ScoreBranch(
                user=rng.normal(size=(RANK_USERS, 6)).astype(np.float32),
                item=(0.3 * rng.normal(size=(RANK_ITEMS, 6))).astype(np.float32),
                item_const=(0.1 * rng.normal(size=RANK_ITEMS)).astype(np.float32),
                weight=0.75,
            ),
        ]
    excluded = [
        np.sort(rng.choice(RANK_ITEMS, size=rng.integers(0, 300), replace=False))
        for _ in range(RANK_USERS)
    ]
    return EmbeddingIndex(
        branches,
        item_categories=np.zeros(RANK_ITEMS, dtype=np.int64),
        item_price_levels=np.zeros(RANK_ITEMS, dtype=np.int64),
        n_price_levels=1,
        n_categories=1,
        exclude_indptr=np.concatenate([[0], np.cumsum([len(row) for row in excluded])]),
        exclude_indices=np.concatenate(excluded),
        item_popularity=np.ones(RANK_ITEMS),
    )


def all_digests():
    for dtype, seed in (("float32", 11), ("float64", 12)):
        scores = tied_scores(dtype, seed)
        for k in (1, 50, WIDTH - 1, WIDTH):
            yield f"indices_rows/{dtype}/k{k}", digest(topk_indices_rows(scores, k))
        rng = np.random.default_rng(seed)
        ids = np.argsort(rng.random((ROWS, 3 * WIDTH)), axis=1)[:, :WIDTH]
        yield f"pairs_rows/{dtype}/k50", digest(topk_pairs_rows(ids, scores, 50))
        for k in (1, 50, WIDTH - 1):
            local = np.sort(_local_topk_set(scores, k), axis=1)
            yield f"local_topk_set/{dtype}/k{k}", digest(local)
    users = np.arange(RANK_USERS)
    for kind, seed in (("ties", 21), ("continuous", 22)):
        index = rank_index(kind, seed)
        for exclude in (True, False):
            ranked = exact_rankings(index, users, RANK_K, exclude_train=exclude)
            yield (
                f"exact_rankings/{kind}/{'exclude' if exclude else 'plain'}",
                digest(*(ranked[int(user)] for user in users)),
            )


with open(os.path.join(os.path.dirname(__file__), "selection_pins.json")) as _handle:
    PINS = json.load(_handle)


@pytest.fixture(scope="module")
def digests():
    return dict(all_digests())


def test_every_pinned_case_is_still_computed(digests):
    assert sorted(digests) == sorted(PINS)


@pytest.mark.parametrize("case", sorted(PINS))
def test_ids_match_the_parent(digests, case):
    assert digests[case] == PINS[case]


if __name__ == "__main__":
    print(json.dumps(dict(all_digests()), indent=4))
