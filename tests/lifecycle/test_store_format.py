"""What a published version must keep now that it is two per-array archives.

The store stopped deflating: ``versions/<v>/index/`` and ``versions/<v>/ann/``
are checksummed directory archives.  Every load verifies every array, a
damaged or tampered version is refused by name, and torn and stale
leftovers are swept.
"""

import os

import numpy as np
import pytest

from repro.faults import corrupt_archive
from repro.lifecycle import StoreError, VersionStore
from repro.archive import ArchiveCorrupted

from test_rollout import bootstrapped, stream


def files_under(path):
    return sorted(
        os.path.relpath(os.path.join(directory, name), path)
        for directory, _dirs, names in os.walk(path)
        for name in names
    )


class TestLayout:
    def test_a_version_is_two_array_directories_and_a_manifest(self, tmp_path, index, ann):
        store = VersionStore(str(tmp_path))
        name = store.write_candidate(index, ann, {"parent": None})
        path = store.version_path(name)
        assert sorted(os.listdir(path)) == ["ann", "index", "manifest.json"]
        assert store.read_manifest(name)["artifacts"] == {"index": "index", "ann": "ann"}
        files = files_under(path)
        assert "index/metadata.json" in files and "index/branch0.item.npy" in files
        assert "ann/metadata.json" in files and "ann/centroids.npy" in files
        assert not [f for f in files_under(str(tmp_path)) if f.endswith(".npz")]

    def test_loaded_arrays_are_in_memory_copies(self, tmp_path, index, ann):
        store = VersionStore(str(tmp_path))
        loaded, loaded_ann = store.load_version(store.write_candidate(index, ann, {}))
        assert not isinstance(loaded.branches[0].item, np.memmap)
        assert not isinstance(loaded_ann.list_items, np.memmap)


class TestDamageIsRefusedByName:
    def test_a_flipped_byte_stops_load_build_and_promote(self, tmp_path, index, ann):
        controller = bootstrapped(tmp_path, index, ann)
        store = controller.store
        controller.ingest(stream(index, 60, seed=21))
        candidate = controller.build()

        corrupt_archive(os.path.join(store.version_path(candidate), "index"), "branch0.item")
        with pytest.raises(ArchiveCorrupted, match="'branch0.item'.*checksum"):
            store.load_version(candidate)
        with pytest.raises(ArchiveCorrupted, match="'branch0.item'"):
            controller.promote(candidate)
        assert store.current() == "v000001"  # the damaged candidate never went live
        assert store.read_manifest(candidate)["status"] == "candidate"

        corrupt_archive(os.path.join(store.version_path("v000001"), "index"), "branch0.item")
        with pytest.raises(ArchiveCorrupted, match="'branch0.item'"):
            controller.build()
        assert store.list_versions() == ["v000001", candidate]  # nothing was published

    def test_a_flipped_byte_in_the_ann_archive_is_named_too(self, tmp_path, index, ann):
        store = VersionStore(str(tmp_path))
        name = store.write_candidate(index, ann, {"parent": None})
        corrupt_archive(os.path.join(store.version_path(name), "ann"), "list_items")
        with pytest.raises(ArchiveCorrupted, match="'list_items'"):
            store.load_version(name)

    @pytest.mark.parametrize("archive, array", [("index", "item_popularity"), ("ann", "centroids")])
    def test_a_deleted_array_is_refused(self, tmp_path, index, ann, archive, array):
        store = VersionStore(str(tmp_path))
        name = store.write_candidate(index, ann, {"parent": None})
        os.remove(os.path.join(store.version_path(name), archive, array + ".npy"))
        with pytest.raises(ArchiveCorrupted, match=f"missing \\['{array}'\\]"):
            store.load_version(name)

    @pytest.mark.parametrize("archive", ["index", "ann"])
    def test_an_unlisted_array_is_refused(self, tmp_path, index, ann, archive):
        store = VersionStore(str(tmp_path))
        name = store.write_candidate(index, ann, {"parent": None})
        np.save(os.path.join(store.version_path(name), archive, "smuggled.npy"), np.zeros(3))
        with pytest.raises(ArchiveCorrupted, match="not listed \\['smuggled'\\]"):
            store.load_version(name)


class TestManifestNamesTheArchives:
    def committed(self, tmp_path, index, ann):
        store = VersionStore(str(tmp_path))
        return store, store.write_candidate(index, ann, {"parent": None})

    def test_a_manifest_without_artifacts_is_a_store_error(self, tmp_path, index, ann):
        store, name = self.committed(tmp_path, index, ann)
        manifest = store.read_manifest(name)
        del manifest["artifacts"]
        store.write_manifest(name, manifest)
        with pytest.raises(StoreError, match=name):
            store.load_version(name)

    @pytest.mark.parametrize("kind", ["index", "ann"])
    @pytest.mark.parametrize(
        "entry", ["../v000002/index", "/etc", "index/../../v000002/index", "..", "", None, 7]
    )
    def test_a_path_outside_the_version_dir_is_a_store_error(
        self, tmp_path, index, ann, kind, entry
    ):
        store, name = self.committed(tmp_path, index, ann)
        manifest = store.read_manifest(name)
        manifest["artifacts"][kind] = entry
        store.write_manifest(name, manifest)
        with pytest.raises(StoreError, match=f"version {name}: manifest names no '{kind}' archive"):
            store.load_version(name)

    def test_the_archives_are_found_where_the_manifest_says(self, tmp_path, index, ann):
        store, name = self.committed(tmp_path, index, ann)
        path = store.version_path(name)
        os.rename(os.path.join(path, "index"), os.path.join(path, "factors"))
        with pytest.raises(FileNotFoundError):
            store.load_version(name)
        manifest = store.read_manifest(name)
        manifest["artifacts"]["index"] = "factors"
        store.write_manifest(name, manifest)
        assert store.load_version(name)[0].n_items == index.n_items


class TestLeftoversAreSwept:
    def test_a_stale_staging_directory_inside_a_committed_version(self, tmp_path, index, ann):
        store = VersionStore(str(tmp_path))
        name = store.write_candidate(index, ann, {"parent": None})
        stale = os.path.join(store.version_path(name), "index.tmp-4242")
        os.makedirs(stale)
        np.save(os.path.join(stale, "branch0.item.npy"), np.zeros(4))
        actions = store.recover()
        assert actions["swept"] == [stale]
        assert not os.path.exists(stale)
        store.load_version(name)  # the committed archives were not touched
        assert store.recover()["swept"] == []

    def test_a_crash_between_the_two_archives_leaves_a_dir_recover_sweeps(
        self, tmp_path, index, ann, monkeypatch
    ):
        store = VersionStore(str(tmp_path))

        class Killed(RuntimeError):
            pass

        def dies(*args, **kwargs):
            raise Killed

        monkeypatch.setattr(type(ann), "save", dies)
        with pytest.raises(Killed):
            store.write_candidate(index, ann, {"parent": None})
        assert os.listdir(store.version_path("v000001")) == ["index"]
        assert store.list_versions() == []
        with pytest.raises(StoreError, match="torn or unknown"):
            store.load_version("v000001")
        assert store.recover()["swept"] == ["v000001"]
        assert os.listdir(store.versions_dir) == []
