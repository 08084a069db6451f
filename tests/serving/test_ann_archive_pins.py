"""What an IVF archive holds on disk, pinned to the bytes the writer emitted
before the standalone PQ kind was deleted.

``ann_archive_pins.json`` was recorded at commit ``6fcb213`` — the parent of
the deletion, before any source edit — by running this file as a script
(``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python <this file>`` prints the
table).  For plain IVF and IVF-PQ over the f32 and f64 catalogs of
``test_ann_default_path_pins.py`` it holds the sha256 of every file of the
``format="dir", include_items=True`` archive (``metadata.json`` included)
and of every array of the ``.npz`` archive (its JSON header included).  Both
containers are byte-deterministic, so equal digests mean an archive
exported before the deletion is exactly what the writer emits now, which
the round trips of ``test_ann_formats.py`` prove the reader loads.  A
digest that stops matching is a changed format, not an expectation to
re-record.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.serving.ann import build_ivf
from test_ann_default_path_pins import N_ITEMS, catalog, index_of

def file_digests(name, root):
    for entry in sorted(os.listdir(root)):
        with open(os.path.join(root, entry), "rb") as handle:
            yield f"{name}/dir/{entry}", hashlib.sha256(handle.read()).hexdigest()


def npz_digests(name, path):
    with np.load(path) as archive:
        for entry in sorted(archive.files):
            value = np.ascontiguousarray(archive[entry])
            sha = hashlib.sha256(f"{value.dtype}{value.shape}".encode())
            sha.update(value.tobytes())
            yield f"{name}/npz/{entry}", sha.hexdigest()


def all_digests(tmp_dir):
    for dtype, seed in (("float32", 1234), ("float64", 4321)):
        index = index_of(catalog(dtype, seed), N_ITEMS)
        for kind, pq in (("ivf", False), ("ivf-pq", True)):
            ann = build_ivf(index, seed=0, pq=pq)
            name = f"{dtype}/{kind}"
            stem = f"{tmp_dir}/{dtype}-{kind}"
            yield from file_digests(name, ann.save(stem, format="dir", include_items=True))
            yield from npz_digests(name, ann.save(stem))


with open(os.path.join(os.path.dirname(__file__), "ann_archive_pins.json")) as _handle:
    PINS = json.load(_handle)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return dict(all_digests(str(tmp_path_factory.mktemp("archives"))))


def test_every_pinned_file_is_still_written(digests):
    assert sorted(digests) == sorted(PINS)


@pytest.mark.parametrize("case", sorted(PINS))
def test_archive_bytes_match_the_parent(digests, case):
    assert digests[case] == PINS[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(dict(all_digests(tmp)), indent=4))
