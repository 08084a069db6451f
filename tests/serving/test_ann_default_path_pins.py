"""Every ANN path that stays, pinned to the bytes it produced before the
int8 tier was deleted.

``ann_default_path_pins.json`` holds sha256 digests recorded at commit
``9831c79`` — the parent of the deletion, before any source edit — by
running this file as a script (``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src
python <this file>`` prints the table).  They cover what the deletion promised not to move: the k-means
partition, the PQ payload, and ``search`` ``(ids, scores)`` for the default
and ``exact`` fine scorers under every mask combination, for plain IVF,
IVF-PQ, a tiered load, and one ``delta_build`` round, on an f32 and an f64
two-branch catalog.  A digest that stops matching is a changed result, not
an expectation to re-record.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.base import ScoreBranch
from repro.lifecycle.delta import delta_build
from repro.serving.ann import TieredIndexConfig, TieredIVFIndex, build_ivf
from repro.serving.index import EmbeddingIndex

N_USERS, N_ITEMS, N_NEW, K = 48, 900, 30, 20


def catalog(dtype, seed, n_items=N_ITEMS + N_NEW):
    """Seeded two-branch arrays: clustered main factors with a user
    constant; side factors with an item constant and ``weight != 1``."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(24, 12))
    return {
        "item_main": (
            centers[rng.integers(24, size=n_items)] + 0.35 * rng.normal(size=(n_items, 12))
        ).astype(dtype),
        "item_side": (0.3 * rng.normal(size=(n_items, 6))).astype(dtype),
        "item_const": (0.1 * rng.normal(size=n_items)).astype(dtype),
        "user_main": rng.normal(size=(N_USERS, 12)).astype(dtype),
        "user_side": rng.normal(size=(N_USERS, 6)).astype(dtype),
        "user_const": (0.1 * rng.normal(size=N_USERS)).astype(dtype),
        "excluded": [
            np.sort(rng.choice(N_ITEMS, size=rng.integers(0, 40), replace=False))
            for _ in range(N_USERS)
        ],
        "mask": rng.random(n_items) < 0.5,
    }


def index_of(arrays, n_items):
    excluded = arrays["excluded"]
    return EmbeddingIndex(
        [
            ScoreBranch(
                user=arrays["user_main"],
                item=arrays["item_main"][:n_items],
                user_const=arrays["user_const"],
            ),
            ScoreBranch(
                user=arrays["user_side"],
                item=arrays["item_side"][:n_items],
                item_const=arrays["item_const"][:n_items],
                weight=0.75,
            ),
        ],
        item_categories=np.zeros(n_items, dtype=np.int64),
        item_price_levels=np.zeros(n_items, dtype=np.int64),
        n_price_levels=1,
        n_categories=1,
        exclude_indptr=np.concatenate([[0], np.cumsum([len(row) for row in excluded])]),
        exclude_indices=np.concatenate(excluded),
        item_popularity=np.ones(n_items),
    )


def digest(*arrays):
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def layout_digests(name, ann):
    yield f"{name}/centroids", digest(ann.centroids)
    yield f"{name}/lists", digest(ann.list_indptr, ann.list_items)
    if ann.pq is not None:
        for b, branch in enumerate(ann.pq):
            yield f"{name}/pq{b}.codebooks", digest(*branch.codebooks)
            yield f"{name}/pq{b}.codes", digest(branch.codes)
        yield f"{name}/pq.means", digest(*ann._pq_list_means)


def search_digests(name, ann, index, mask, scorers=(None, "exact"), sweep=True):
    """``sweep=False`` keeps the two extreme mask cases at the default
    ``nprobe`` — for the variants whose search loop is the resident one."""
    users = np.arange(N_USERS)
    csr = (index.exclude_indptr, index.exclude_indices)
    masks = {
        "plain": {},
        "exclude": {"exclude_csr": csr},
        "filter": {"candidate_mask": mask},
        "both": {"exclude_csr": csr, "candidate_mask": mask},
    }
    if not sweep:
        masks = {key: masks[key] for key in ("plain", "both")}
    for scorer in scorers:
        for mask_name, kwargs in masks.items():
            for nprobe in (None, ann.n_lists) if sweep else (None,):
                ids, scores = ann.search(users, K, nprobe=nprobe, scorer=scorer, **kwargs)
                yield (
                    f"{name}/search.{scorer or 'default'}.{mask_name}."
                    f"{'full' if nprobe else 'default'}",
                    digest(ids, scores),
                )


def all_digests(tmp_dir):
    for dtype, seed in (("float32", 1234), ("float64", 4321)):
        arrays = catalog(dtype, seed)
        index = index_of(arrays, N_ITEMS)
        mask = arrays["mask"][:N_ITEMS]
        for kind, kwargs in (("ivf", {}), ("ivf-pq", {"pq": True})):
            name = f"{dtype}/{kind}"
            ann = build_ivf(index, seed=0, **kwargs)
            yield from layout_digests(name, ann)
            yield from search_digests(name, ann, index, mask)
            path = ann.save(f"{tmp_dir}/{dtype}-{kind}", format="dir", include_items=True)
            for hot_fraction in (0.0, 0.5):
                tiered = TieredIVFIndex.load(
                    path, index, TieredIndexConfig(hot_fraction=hot_fraction)
                )
                yield f"{name}/tiered{hot_fraction}/hot_lists", digest(tiered.hot_lists)
                yield from search_digests(
                    f"{name}/tiered{hot_fraction}", tiered, index, mask, sweep=False
                )
            if kind == "ivf":  # a PQ companion refuses delta builds
                grown = index_of(arrays, N_ITEMS + N_NEW)
                delta, stats = delta_build(ann, grown)
                assert stats.n_new_items == N_NEW and not stats.reclustered
                yield from layout_digests(f"{name}/delta", delta)
                yield from search_digests(
                    f"{name}/delta", delta, grown, arrays["mask"], scorers=(None,), sweep=False
                )


with open(os.path.join(os.path.dirname(__file__), "ann_default_path_pins.json")) as _handle:
    PINS = json.load(_handle)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return dict(all_digests(str(tmp_path_factory.mktemp("pins"))))


def test_every_pinned_case_is_still_computed(digests):
    assert sorted(digests) == sorted(PINS)


@pytest.mark.parametrize("case", sorted(PINS))
def test_bytes_match_the_parent(digests, case):
    assert digests[case] == PINS[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(dict(all_digests(tmp)), indent=4))
