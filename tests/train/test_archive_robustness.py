"""Archive durability: atomic publish, checksums, corruption detection.

Every archive write must either publish completely or leave the previous
contents untouched; every verified load must refuse silently-corrupted
payloads with a typed :class:`ArchiveCorrupted`.
"""

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from repro.faults import corrupt_archive
from repro.train.persistence import (
    ArchiveCorrupted,
    CHECKSUM_KEY,
    _array_checksum,
    clean_stale_archives,
    read_archive_arrays,
    read_archive_metadata,
    write_archive,
    write_archive_dir,
)

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
        path = write_archive(str(tmp_path / "a.npz"), arrays, metadata={"v": 1})
        metadata = read_archive_metadata(path)
        assert set(metadata[CHECKSUM_KEY]) == set(arrays)
        loaded = read_archive_arrays(path)
        for name, value in arrays.items():
            np.testing.assert_array_equal(loaded[name], value)

    @pytest.mark.parametrize("fmt", ["npz", "dir"])
    def test_corruption_raises_typed_error(self, arrays, tmp_path, fmt):
        if fmt == "npz":
            path = write_archive(str(tmp_path / "c.npz"), arrays, metadata={})
        else:
            path = write_archive_dir(str(tmp_path / "c_dir"), arrays, metadata={})
        victim = corrupt_archive(path, array="weights")
        with pytest.raises(ArchiveCorrupted, match="weights"):
            read_archive_arrays(path)
        assert victim == "weights"

    def test_verify_opt_out_loads_corrupted_payload(self, arrays, tmp_path):
        path = write_archive(str(tmp_path / "d.npz"), arrays, metadata={})
        corrupt_archive(path, array="weights")
        loaded = read_archive_arrays(path, verify=False)
        assert not np.array_equal(loaded["weights"], arrays["weights"])

    def test_mmap_skips_verification_by_default(self, arrays, tmp_path):
        path = write_archive_dir(str(tmp_path / "m_dir"), arrays, metadata={})
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
        path = write_archive_dir(str(tmp_path / "bare"), arrays, metadata={"v": 0})
        self._rewrite_header(path, lambda metadata: metadata.pop(CHECKSUM_KEY))
        with pytest.raises(ArchiveCorrupted, match=CHECKSUM_KEY):
            read_archive_arrays(path, mmap=mmap)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_missing_array_is_named(self, arrays, tmp_path, mmap):
        path = write_archive_dir(str(tmp_path / "short"), arrays, metadata={})
        os.remove(os.path.join(path, "ids.npy"))
        with pytest.raises(ArchiveCorrupted, match=r"missing \['ids'\]"):
            read_archive_arrays(path, mmap=mmap)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_array_the_header_does_not_list_is_named(self, arrays, tmp_path, mmap):
        # Stripping an array's digest used to make it load unverified.
        path = write_archive_dir(str(tmp_path / "extra"), arrays, metadata={})
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
                str(tmp_path / "r.npz"), arrays, metadata={CHECKSUM_KEY: "stolen"}
            )


class TestAtomicPublish:
    def test_dir_overwrite_is_replace_not_merge(self, arrays, tmp_path):
        path = str(tmp_path / "swap")
        write_archive_dir(path, arrays, metadata={"gen": 1})
        write_archive_dir(path, {"only": np.arange(4.0)}, metadata={"gen": 2})
        loaded = read_archive_arrays(path)
        assert set(loaded) == {"only"}
        assert read_archive_metadata(path)["gen"] == 2

    def test_no_staging_residue_after_write(self, arrays, tmp_path):
        write_archive(str(tmp_path / "a.npz"), arrays, metadata={})
        write_archive_dir(str(tmp_path / "a_dir"), arrays, metadata={})
        residue = [name for name in os.listdir(tmp_path) if ".tmp-" in name]
        assert residue == []

    def test_clean_stale_archives_sweeps_both_kinds(self, arrays, tmp_path):
        published = write_archive(str(tmp_path / "keep.npz"), arrays, metadata={})
        stale_file = tmp_path / "dead.npz.tmp-1234.npz"
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
