"""What an IVF archive holds on disk, pinned to the bytes the writer emitted
before the standalone PQ kind was deleted.

``ann_archive_pins.json`` was recorded at commit ``6fcb213`` — the parent of
the deletion, before any source edit — by running this file as a script
(``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python <this file>`` prints the
table).  For plain IVF and IVF-PQ over the f32 and f64 catalogs of
``test_ann_default_path_pins.py`` it holds the sha256 of every file of the
``include_items=True`` archive (``metadata.json`` included).  The archive
is byte-deterministic, so equal digests mean an archive exported before the
deletion is exactly what the writer emits now, which the round trips of
``test_ann_formats.py`` prove the reader loads.  A digest that stops
matching is a changed format, not an expectation to re-record.  (The
digests of the single-file container that was deleted later were dropped
with it; the directory digests were left as recorded.)  The same archives
show that every pinned array is under the header's checksums: a flipped
byte in any one of them is refused on load.
"""

import hashlib
import json
import os
import re
import shutil

import pytest

from repro.faults import corrupt_archive
from repro.serving.ann import build_ivf, load_ann
from repro.archive import ArchiveCorrupted
from test_ann_default_path_pins import N_ITEMS, catalog, index_of

def file_digests(name, root):
    for entry in sorted(os.listdir(root)):
        with open(os.path.join(root, entry), "rb") as handle:
            yield f"{name}/dir/{entry}", hashlib.sha256(handle.read()).hexdigest()


def all_archives(tmp_dir):
    """Save every pinned archive under ``tmp_dir``: ``{name: (path, index)}``."""
    archives = {}
    for dtype, seed in (("float32", 1234), ("float64", 4321)):
        index = index_of(catalog(dtype, seed), N_ITEMS)
        for kind, pq in (("ivf", False), ("ivf-pq", True)):
            ann = build_ivf(index, seed=0, pq=pq)
            name = f"{dtype}/{kind}"
            stem = f"{tmp_dir}/{dtype}-{kind}"
            archives[name] = ann.save(stem, include_items=True), index
    return archives


def all_digests(archives):
    for name, (path, _) in archives.items():
        yield from file_digests(name, path)


with open(os.path.join(os.path.dirname(__file__), "ann_archive_pins.json")) as _handle:
    PINS = json.load(_handle)

#: ``(archive name, array)`` for every pinned ``.npy`` file
PINNED_ARRAYS = [
    (case.split("/dir/")[0], case.split("/dir/")[1][: -len(".npy")])
    for case in sorted(PINS)
    if case.endswith(".npy")
]


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    return all_archives(str(tmp_path_factory.mktemp("archives")))


@pytest.fixture(scope="module")
def digests(archives):
    return dict(all_digests(archives))


def test_every_pinned_file_is_still_written(digests):
    assert sorted(digests) == sorted(PINS)


@pytest.mark.parametrize("case", sorted(PINS))
def test_archive_bytes_match_the_parent(digests, case):
    assert digests[case] == PINS[case]


@pytest.mark.parametrize(
    "name, array", PINNED_ARRAYS, ids=[f"{name}/{array}" for name, array in PINNED_ARRAYS]
)
def test_a_flipped_byte_in_any_pinned_array_refuses_to_load(archives, tmp_path, name, array):
    # Every array the writer stores is under the header's checksums: none
    # can be damaged and still load.
    source, index = archives[name]
    path = shutil.copytree(source, str(tmp_path / "copy"))
    assert corrupt_archive(path, array=array) == array
    with pytest.raises(ArchiveCorrupted, match=re.escape(repr(array))):
        load_ann(path, index)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(dict(all_digests(all_archives(tmp))), indent=4))
