"""A loaded index lives outside the malloc heap and gives its pages back.

glibc's mmap threshold rises to the largest block ever freed, so once a
process has freed a large array (the e2e benchmark's input generator frees
10.75 MB draws), every factor array ``np.load`` copied came from the main
heap, and an index a swap or a promote dropped stayed resident as a hole.
``read_archive_arrays`` now copies each array into a private anonymous
mapping of its own.  Both counters run in a fresh interpreter, so no heap
hole an earlier test left can absorb the load.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.scoring import ScoreBranch
from repro.serving.index import EmbeddingIndex

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

N_USERS, N_ITEMS = 20_000, 24_000

#: Frees 16 MB, loads the index, reads where its factors lie, drops it.
_PROBE = """
import gc, json, sys
import numpy as np
from repro.serving.index import EmbeddingIndex

def rss_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024

np.ones(2 << 20)  # freeing 16 MB raises the mmap threshold past every factor
before = rss_mb()
index = EmbeddingIndex.load(sys.argv[1])
with open("/proc/self/maps") as maps:
    heap = [
        [int(end, 16) for end in line.split()[0].split("-")]
        for line in maps
        if line.rstrip().endswith("[heap]")
    ]
factors = [array for branch in index.branches for array in (branch.user, branch.item)]
reading = {
    "factors": len(factors),
    "in_heap": sum(any(low <= a.ctypes.data < high for low, high in heap) for a in factors),
}
del index, factors
gc.collect()
print(json.dumps({**reading, "kept_mb": rss_mb() - before}))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """The probe's reading for a 20 000-user x 24 000-item PUP-shaped index."""
    rng = np.random.default_rng(0)

    def factors(rows, dim):
        return rng.normal(size=(rows, dim)).astype(np.float32)

    index = EmbeddingIndex(
        [
            ScoreBranch(user=factors(N_USERS, 56), item=factors(N_ITEMS, 56)),
            ScoreBranch(
                user=factors(N_USERS, 8),
                item=factors(N_ITEMS, 8),
                item_const=factors(N_ITEMS, 1)[:, 0],
            ),
        ],
        item_categories=rng.integers(8, size=N_ITEMS),
        item_price_levels=rng.integers(4, size=N_ITEMS),
        n_price_levels=4,
        n_categories=8,
        exclude_indptr=np.zeros(N_USERS + 1, dtype=np.int64),
        exclude_indices=np.zeros(0, dtype=np.int64),
        item_popularity=np.ones(N_ITEMS),
    )
    path = index.save(str(tmp_path_factory.mktemp("residency") / "index"))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, path],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"},
        check=True,
        timeout=120,
    )
    return json.loads(result.stdout.splitlines()[-1])


pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps and /proc/self/status"
)


def test_loaded_factors_lie_outside_the_malloc_heap(probe):
    # the parent's np.load copies put 4 of 4 in [heap]
    assert probe["factors"] == 4 and probe["in_heap"] == 0, probe


def test_dropping_a_loaded_index_returns_its_pages(probe):
    # the parent's dropped index stayed resident as an 11 MB heap hole
    assert abs(probe["kept_mb"]) <= 0.5, probe
