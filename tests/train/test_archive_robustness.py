"""Archive durability: atomic publish, checksums, corruption detection.

Every archive write must either publish completely or leave the previous
contents in place once the loaders' staging sweep has run; every verified
load must refuse silently-corrupted payloads with a typed
:class:`ArchiveCorrupted`.
"""

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.faults import corrupt_archive
from repro.runtime.engine import BulkRecommendations, recommend_all
from repro.serving import export_index
from repro.serving.ann import build_ivf, load_ann
from repro.serving.index import EmbeddingIndex
from repro.archive import (
    ArchiveCorrupted,
    CHECKSUM_KEY,
    _array_checksum,
    clean_stale_archives,
    read_archive_arrays,
    read_archive_metadata,
    write_archive,
)
from repro.train.persistence import load_checkpoint, save_checkpoint

_GRID = np.random.default_rng(9).normal(size=(12, 10))


@pytest.fixture
def arrays():
    rng = np.random.default_rng(3)
    return {
        "weights": rng.normal(size=(32, 8)),
        "ids": np.arange(32, dtype=np.int64),
        "empty": np.zeros(0),
    }


class TestChecksums:
    def test_roundtrip_carries_digests(self, arrays, tmp_path):
        path = write_archive(str(tmp_path / "a"), arrays, metadata={"v": 1})
        metadata = read_archive_metadata(path)
        assert set(metadata[CHECKSUM_KEY]) == set(arrays)
        loaded = read_archive_arrays(path)
        for name, value in arrays.items():
            np.testing.assert_array_equal(loaded[name], value)

    def test_corruption_raises_typed_error(self, arrays, tmp_path):
        path = write_archive(str(tmp_path / "c"), arrays, metadata={})
        victim = corrupt_archive(path, array="weights")
        with pytest.raises(ArchiveCorrupted, match="weights"):
            read_archive_arrays(path)
        assert victim == "weights"

    def test_verify_opt_out_loads_corrupted_payload(self, arrays, tmp_path):
        path = write_archive(str(tmp_path / "d"), arrays, metadata={})
        corrupt_archive(path, array="weights")
        loaded = read_archive_arrays(path, verify=False)
        assert not np.array_equal(loaded["weights"], arrays["weights"])

    def test_mmap_skips_verification_by_default(self, arrays, tmp_path):
        path = write_archive(str(tmp_path / "m_dir"), arrays, metadata={})
        corrupt_archive(path, array="weights")
        # mmap default: no eager full read, so no verification either ...
        read_archive_arrays(path, mmap=True)
        # ... but an explicit verify=True catches it even under mmap.
        with pytest.raises(ArchiveCorrupted):
            read_archive_arrays(path, mmap=True, verify=True)

    @staticmethod
    def _rewrite_header(path, edit):
        meta_path = os.path.join(path, "metadata.json")
        with open(meta_path) as handle:
            metadata = json.load(handle)
        edit(metadata)
        with open(meta_path, "w") as handle:
            json.dump(metadata, handle)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_header_without_checksums_is_refused(self, arrays, tmp_path, mmap):
        path = write_archive(str(tmp_path / "bare"), arrays, metadata={"v": 0})
        self._rewrite_header(path, lambda metadata: metadata.pop(CHECKSUM_KEY))
        with pytest.raises(ArchiveCorrupted, match=CHECKSUM_KEY):
            read_archive_arrays(path, mmap=mmap)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_missing_array_is_named(self, arrays, tmp_path, mmap):
        path = write_archive(str(tmp_path / "short"), arrays, metadata={})
        os.remove(os.path.join(path, "ids.npy"))
        with pytest.raises(ArchiveCorrupted, match=r"missing \['ids'\]"):
            read_archive_arrays(path, mmap=mmap)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_array_the_header_does_not_list_is_named(self, arrays, tmp_path, mmap):
        # Stripping an array's digest used to make it load unverified.
        path = write_archive(str(tmp_path / "extra"), arrays, metadata={})
        self._rewrite_header(path, lambda metadata: metadata[CHECKSUM_KEY].pop("weights"))
        with pytest.raises(ArchiveCorrupted, match=r"not listed \['weights'\]"):
            read_archive_arrays(path, mmap=mmap)

    @pytest.mark.parametrize(
        "value",
        [
            _GRID,
            np.asfortranarray(_GRID),
            _GRID[::2, 1::3],
            _GRID.T,
            np.array(3.5),
            np.zeros((0, 4)),
            _GRID > 0,
            (10 * _GRID).astype(np.int8),
            _GRID.astype(np.float16)[:, ::-1],
            _GRID.astype(">f4"),
        ],
        ids=[
            "c-order", "fortran", "strided", "transposed", "0-d", "zero-size",
            "bool", "int8", "float16-reversed", "big-endian",
        ],
    )
    def test_digest_is_the_digest_of_tobytes(self, value):
        # Every archive written so far carries this digest; it must not move.
        assert _array_checksum(value) == hashlib.sha256(np.asarray(value).tobytes()).hexdigest()

    def test_digest_hashes_the_buffer_without_copying_it(self):
        value = np.random.default_rng(0).normal(size=(6 << 20) // 8)
        tracemalloc.start()
        try:
            _array_checksum(value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= value.nbytes / 60  # the parent's tobytes() copy was all of it

    def test_reserved_metadata_key_rejected(self, arrays, tmp_path):
        with pytest.raises(ValueError, match=CHECKSUM_KEY):
            write_archive(
                str(tmp_path / "r"), arrays, metadata={CHECKSUM_KEY: "stolen"}
            )


class TestAtomicPublish:
    def test_dir_overwrite_is_replace_not_merge(self, arrays, tmp_path):
        path = str(tmp_path / "swap")
        write_archive(path, arrays, metadata={"gen": 1})
        write_archive(path, {"only": np.arange(4.0)}, metadata={"gen": 2})
        loaded = read_archive_arrays(path)
        assert set(loaded) == {"only"}
        assert read_archive_metadata(path)["gen"] == 2

    def test_no_staging_residue_after_write(self, arrays, tmp_path):
        write_archive(str(tmp_path / "a"), arrays, metadata={})
        write_archive(str(tmp_path / "a"), arrays, metadata={})
        residue = [name for name in os.listdir(tmp_path) if ".tmp-" in name]
        assert residue == []

    def test_clean_stale_archives_sweeps_both_kinds(self, arrays, tmp_path):
        published = write_archive(str(tmp_path / "keep"), arrays, metadata={})
        stale_file = tmp_path / "dead.json.tmp-1234"
        stale_file.write_bytes(b"partial")
        stale_dir = tmp_path / "dead_dir.tmp-5678"
        stale_dir.mkdir()
        (stale_dir / "weights.npy").write_bytes(b"partial")
        removed = clean_stale_archives(str(tmp_path))
        assert len(removed) == 2
        assert not stale_file.exists() and not stale_dir.exists()
        # the published archive is untouched
        loaded = read_archive_arrays(published)
        np.testing.assert_array_equal(loaded["weights"], arrays["weights"])

    def test_clean_missing_directory_is_quiet(self, tmp_path):
        assert clean_stale_archives(str(tmp_path / "nope")) == []


OLD = {"weights": np.arange(12.0).reshape(3, 4), "ids": np.arange(3)}
NEW = {"weights": -np.arange(8.0).reshape(2, 4), "extra": np.ones(5)}


class TestAnInterruptedOverwrite:
    """Kill an overwrite at each rename / rmtree it makes: after the sweep
    the path holds one whole generation, old or new, and nothing else."""

    @pytest.mark.parametrize("step", range(4))
    def test_one_whole_generation_survives(self, tmp_path, monkeypatch, kill_publish, step):
        path = str(tmp_path / "arch")
        write_archive(path, OLD, metadata={"gen": 1})
        calls = kill_publish.at(step)
        try:
            write_archive(path, NEW, metadata={"gen": 2})
        except kill_publish.Killed:
            pass
        monkeypatch.undo()

        clean_stale_archives(str(tmp_path))
        loaded = read_archive_arrays(path)
        generation = read_archive_metadata(path)["gen"]
        expected = OLD if generation == 1 else NEW
        assert sorted(loaded) == sorted(expected)
        for name, value in expected.items():
            np.testing.assert_array_equal(loaded[name], value)
        assert os.listdir(tmp_path) == ["arch"]
        # old aside, new in, old deleted: the last parameter is a clean run
        assert calls == ["rename", "rename", "rmtree"][: step + 1]

    def test_the_next_write_finishes_an_interrupted_one(
        self, tmp_path, monkeypatch, kill_publish
    ):
        path = str(tmp_path / "arch")
        write_archive(path, OLD, metadata={"gen": 1})
        kill_publish.at(1)  # the old generation is aside, the new one staged
        with pytest.raises(kill_publish.Killed):
            write_archive(path, NEW, metadata={"gen": 2})
        monkeypatch.undo()
        assert not os.path.exists(path)
        write_archive(str(tmp_path / "other"), OLD, metadata={})  # another path: untouched
        assert not os.path.exists(path)
        write_archive(path, OLD, metadata={"gen": 3})
        assert read_archive_metadata(path)["gen"] == 3
        assert sorted(os.listdir(tmp_path)) == ["arch", "other"]

    def test_a_staging_dir_without_its_header_is_never_published(self, tmp_path):
        staging = tmp_path / "arch.tmp-4242"
        staging.mkdir()
        np.save(staging / "weights.npy", OLD["weights"])  # the header is written last
        assert clean_stale_archives(str(tmp_path)) == [str(staging)]
        assert os.listdir(tmp_path) == []


def _pup(dataset, seed):
    model = pup_full(
        dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(seed)
    )
    model.eval()
    return model


@pytest.fixture(scope="module")
def generations():
    """Two distinct generations of every artifact kind, old and new."""
    dataset = generate(
        SyntheticConfig(
            n_users=30, n_items=80, n_categories=3, n_price_levels=3,
            interactions_per_user=5, seed=5,
        )
    )[0]
    models = [_pup(dataset, 1), _pup(dataset, 2)]
    indexes = [export_index(model, dataset) for model in models]
    users = np.arange(dataset.n_users)
    return {
        "dataset": dataset,
        "checkpoint": models,
        "index": indexes,
        "ivf": [build_ivf(indexes[0], n_lists=4, seed=seed) for seed in (0, 1)],
        "recommendations": [
            recommend_all(index, k=5, users=users) for index in indexes
        ],
    }


def _state(kind, artifact):
    """The arrays that tell one generation of ``kind`` from the other."""
    if kind == "checkpoint":
        return artifact.state_dict()
    if kind == "index":
        return {"scores": artifact.score(np.arange(artifact.n_users))}
    if kind == "ivf":
        return {
            "centroids": artifact.centroids,
            "list_indptr": artifact.list_indptr,
            "list_items": artifact.list_items,
        }
    return {"users": artifact.users, "items": artifact.items, "scores": artifact.scores}


def _save(kind, artifact, path):
    if kind == "checkpoint":
        return save_checkpoint(artifact, path)
    return artifact.save(path)


def _load(kind, path, generations):
    if kind == "checkpoint":
        model = _pup(generations["dataset"], 0)
        load_checkpoint(model, path)
        return model
    if kind == "index":
        return EmbeddingIndex.load(path)
    if kind == "ivf":
        return load_ann(path, generations["index"][0])
    return BulkRecommendations.load(path)


class TestEveryArtifactSurvivesAnInterruptedOverwrite:
    """The guarantee above, through each artifact's own save and load: an
    overwrite killed at any step leaves, once the loaders' sweep has run,
    a generation the artifact's loader reads back whole, old or new."""

    @pytest.mark.parametrize("step", range(4))
    @pytest.mark.parametrize("kind", ["checkpoint", "index", "ivf", "recommendations"])
    def test_the_loader_reads_one_whole_generation(
        self, generations, tmp_path, monkeypatch, kill_publish, kind, step
    ):
        old, new = generations[kind]
        path = str(tmp_path / kind)
        _save(kind, old, path)
        calls = kill_publish.at(step)
        try:
            _save(kind, new, path)
        except kill_publish.Killed:
            pass
        monkeypatch.undo()
        assert calls == ["rename", "rename", "rmtree"][: step + 1]

        clean_stale_archives(str(tmp_path))
        assert os.listdir(tmp_path) == [kind]
        loaded = _state(kind, _load(kind, path, generations))
        # once the old generation is renamed aside, the sweep rolls the
        # complete new one forward
        expected = _state(kind, old if step == 0 else new)
        assert sorted(loaded) == sorted(expected)
        for name, value in expected.items():
            np.testing.assert_array_equal(loaded[name], value)
