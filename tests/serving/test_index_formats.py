"""EmbeddingIndex container formats: npz vs dir, mmap loading, fallbacks."""

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.serving import EmbeddingIndex, export_index
from repro.train import persistence


@pytest.fixture(scope="module")
def setup():
    config = SyntheticConfig(
        n_users=40, n_items=70, n_categories=3, n_price_levels=4,
        interactions_per_user=7, seed=21,
    )
    dataset = generate(config)[0]
    model = pup_full(dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(1))
    model.eval()
    return dataset, export_index(model, dataset, extra={"note": "fmt"})


def _assert_indexes_equal(a: EmbeddingIndex, b: EmbeddingIndex) -> None:
    assert a.n_users == b.n_users and a.n_items == b.n_items
    assert a.model_name == b.model_name and a.extra == b.extra
    assert len(a.branches) == len(b.branches)
    for left, right in zip(a.branches, b.branches):
        np.testing.assert_array_equal(left.user, right.user)
        np.testing.assert_array_equal(left.item, right.item)
        assert left.weight == right.weight
    np.testing.assert_array_equal(a.exclude_indptr, b.exclude_indptr)
    np.testing.assert_array_equal(a.exclude_indices, b.exclude_indices)
    users = np.arange(a.n_users)
    np.testing.assert_array_equal(a.score(users), b.score(users))


class TestDirFormat:
    def test_round_trip(self, setup, tmp_path):
        _, index = setup
        path = index.save(str(tmp_path / "index"), format="dir")
        _assert_indexes_equal(index, EmbeddingIndex.load(path))

    def test_mmap_load_is_memory_mapped_and_bit_identical(self, setup, tmp_path):
        _, index = setup
        path = index.save(str(tmp_path / "index"), format="dir")
        mapped = EmbeddingIndex.load(path, mmap=True)
        # branch factors must be zero-copy views over the on-disk mapping
        # (canonicalization strips the memmap subclass but keeps its memory)
        user = mapped.branches[0].user
        assert isinstance(user, np.memmap) or isinstance(user.base, np.memmap)
        assert not user.flags.writeable
        assert mapped.source_path == path and mapped.source_mmap
        _assert_indexes_equal(index, mapped)

    def test_npz_round_trip_still_works(self, setup, tmp_path):
        _, index = setup
        path = index.save(str(tmp_path / "index.npz"))
        loaded = EmbeddingIndex.load(path)
        assert loaded.source_path == path and not loaded.source_mmap
        _assert_indexes_equal(index, loaded)

    def test_mmap_flag_falls_back_for_npz(self, setup, tmp_path):
        # Transparent: a compressed archive cannot be mapped, but loading
        # with mmap=True must still succeed with identical contents.
        _, index = setup
        path = index.save(str(tmp_path / "packed.npz"))
        loaded = EmbeddingIndex.load(path, mmap=True)
        assert not isinstance(loaded.branches[0].user, np.memmap)
        # not actually mapped, so it must not advertise path re-attach to the
        # batch runtime's worker transport
        assert not loaded.source_mmap
        _assert_indexes_equal(index, loaded)

    def test_rejects_unknown_format(self, setup, tmp_path):
        _, index = setup
        with pytest.raises(ValueError, match="format"):
            index.save(str(tmp_path / "x"), format="parquet")

    def test_dir_and_npz_kind_checks_match(self, setup, tmp_path):
        dataset, index = setup
        directory = index.save(str(tmp_path / "index"), format="dir")
        metadata = persistence.read_archive_metadata(directory)
        assert persistence.archive_kind(metadata) == "embedding_index"
        # a checkpoint directory is rejected by the index loader
        from repro.core import pup_full as build

        model = build(dataset, global_dim=8, category_dim=4, rng=np.random.default_rng(1))
        arrays = model.state_dict()
        ckpt_dir = persistence.write_archive_dir(
            str(tmp_path / "ckpt"), arrays, {persistence.KIND_KEY: "checkpoint"}
        )
        with pytest.raises(ValueError, match="not an embedding index"):
            EmbeddingIndex.load(ckpt_dir)


class TestArchiveDirLayer:
    def test_rejects_path_separators_in_names(self, tmp_path):
        with pytest.raises(ValueError, match="filename"):
            persistence.write_archive_dir(
                str(tmp_path / "a"), {"bad/name": np.zeros(2)}, {}
            )

    def test_missing_metadata_is_a_clear_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="missing metadata"):
            persistence.read_archive_metadata(str(empty))

    def test_overwrite_removes_stale_arrays(self, tmp_path):
        target = str(tmp_path / "arch")
        persistence.write_archive_dir(
            target, {"a": np.zeros(2), "b": np.ones(3)}, {"kind": "test"}
        )
        persistence.write_archive_dir(target, {"a": np.zeros(2)}, {"kind": "test"})
        assert set(persistence.read_archive_arrays(target)) == {"a"}

    def test_mmap_arrays_are_read_only_views(self, tmp_path):
        path = persistence.write_archive_dir(
            str(tmp_path / "arch"), {"x": np.arange(6.0)}, {"kind": "test"}
        )
        arrays = persistence.read_archive_arrays(path, mmap=True)
        assert isinstance(arrays["x"], np.memmap)
        with pytest.raises((ValueError, OSError)):
            arrays["x"][0] = 5.0
