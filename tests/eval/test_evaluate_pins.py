"""The paper's Recall/NDCG protocol, pinned to what it produced when every
exact ranking still scored the whole catalog in one block.

``evaluate_pins.json`` was recorded at commit ``4d9ffb5`` — the parent of
the change that made ``ShardedIndex`` derive its shard count from
:data:`repro.runtime.sharded.ITEM_BLOCK_SIZE`, before any source edit — by
running this file as a script
(``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python <this file>`` prints the
table).  Each case is an untrained PUP on one paper dataset at scale 1, in
float32 and float64: the digest of ``topk_rankings`` over the test users
and of the ``evaluate`` metrics.

The tests replay the table at the default block width and at widths that
split both catalogs into many unequal shards — 7 (narrower than the
ranking depth, so every shard hands its whole range to the merge), 89 and
128 — once with two worker threads.  A digest that stops matching is a
changed result, not an expectation to re-record.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import load_dataset
from repro.eval.ranking import evaluate, topk_rankings
from repro.nn import precision
from repro.runtime.sharded import shard_ranges

DATASETS = ("yelp", "beibei")
DTYPES = ("float32", "float64")
KS = (20, 50)
WIDTHS = (7, 89, 128)


def digest(*arrays):
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def case_model(name, dtype):
    dataset, _ = load_dataset(name, scale=1)
    with precision(dtype):
        model = pup_full(dataset, global_dim=16, category_dim=8, rng=np.random.default_rng(5))
    model.eval()
    return dataset, model


def all_digests(**runtime):
    for name in DATASETS:
        for dtype in DTYPES:
            dataset, model = case_model(name, dtype)
            users = sorted(dataset.split_positive_sets("test"))
            rankings = topk_rankings(model, dataset, users, k=max(KS), **runtime)
            yield f"{name}/{dtype}/rankings", digest(*(rankings[user] for user in users))
            metrics = evaluate(model, dataset, ks=KS, **runtime)
            yield f"{name}/{dtype}/metrics", digest(
                np.array([metrics[key] for key in sorted(metrics)])
            )


with open(os.path.join(os.path.dirname(__file__), "evaluate_pins.json")) as _handle:
    PINS = json.load(_handle)


def test_every_width_splits_both_catalogs_unequally():
    for name in DATASETS:
        n_items = load_dataset(name, scale=1)[0].n_items
        for width in WIDTHS:
            ranges = shard_ranges(n_items, -(-n_items // width))
            assert len(ranges) > 2 and len({stop - start for start, stop in ranges}) > 1


@pytest.mark.parametrize("width", (None,) + WIDTHS)
def test_digests_match_the_parent(item_block, width):
    if width is not None:
        item_block(width)
    assert dict(all_digests()) == PINS


def test_digests_match_the_parent_in_thread_workers(item_block):
    item_block(WIDTHS[1])
    assert dict(all_digests(workers=2)) == PINS


if __name__ == "__main__":
    print(json.dumps(dict(all_digests()), indent=4))
