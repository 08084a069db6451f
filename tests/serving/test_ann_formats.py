"""The on-disk contract of the IVF index, with and without its PQ stage.

An index loaded from its archive directory, mapped or read, must return
bit-identical search results.  Every loader shares one header
and one reader, so every loader must refuse the same four things, and the
array / header key sets are pinned so a format change cannot slip in
unannounced.
"""

import json
import os

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.faults import corrupt_archive
from repro.serving import export_index
from repro.serving.ann import (
    IVFIndex,
    TieredIndexConfig,
    TieredIVFIndex,
    build_ivf,
    load_ann,
)
from repro.archive import ArchiveCorrupted


def make_index(seed, n_users=60, n_items=240):
    config = SyntheticConfig(
        n_users=n_users, n_items=n_items, n_categories=4, n_price_levels=4,
        interactions_per_user=7, seed=seed,
    )
    dataset = generate(config)[0]
    model = pup_full(dataset, global_dim=12, category_dim=6, rng=np.random.default_rng(9))
    model.eval()
    return export_index(model, dataset)


@pytest.fixture(scope="module")
def index():
    return make_index(seed=17)


# label -> (builder, save kwargs, scorers to compare)
KINDS = {
    "ivf": (
        lambda index: build_ivf(index, n_lists=10, nprobe=3, seed=0),
        {},
        ("exact",),
    ),
    "ivf+items": (
        lambda index: build_ivf(index, n_lists=10, nprobe=3, seed=0),
        {"include_items": True},
        ("exact",),
    ),
    "ivf-pq": (
        lambda index: build_ivf(index, n_lists=10, nprobe=3, seed=0, pq=True),
        {},
        ("exact", "pq"),
    ),
    "ivf-pq+items": (
        lambda index: build_ivf(index, n_lists=10, nprobe=3, seed=0, pq=True),
        {"include_items": True},
        ("exact", "pq"),
    ),
    "ivf-pq+rotation": (
        lambda index: build_ivf(
            index, n_lists=10, nprobe=3, seed=0, pq=True, pq_rotation=True
        ),
        {},
        ("exact", "pq"),
    ),
}


@pytest.fixture(scope="module")
def built(index):
    """Each kind built once; builds are deterministic and never mutated."""
    cache = {}

    def get(label):
        if label not in cache:
            cache[label] = KINDS[label][0](index)
        return cache[label]

    return get


def save(ann, tmp_path, label):
    return ann.save(str(tmp_path / label.replace("+", "_")), **KINDS[label][1])


def edit_header(path, edit):
    """Rewrite a dir archive's header in place (arrays stay untouched)."""
    header = os.path.join(path, "metadata.json")
    with open(header) as handle:
        metadata = json.load(handle)
    edit(metadata)
    with open(header, "w") as handle:
        json.dump(metadata, handle)


class TestRoundTrip:
    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("label", sorted(KINDS))
    def test_loaded_index_searches_bit_identically(
        self, index, built, tmp_path, label, mmap
    ):
        ann = built(label)
        loaded = load_ann(save(ann, tmp_path, label), index, mmap=mmap)
        assert type(loaded) is type(ann)
        assert loaded.kind == ann.kind
        users = np.arange(35)
        csr = (index.exclude_indptr, index.exclude_indices)
        for scorer in KINDS[label][2]:
            kwargs = {"exclude_csr": csr, "scorer": scorer}
            ids_ref, scores_ref = ann.search(users, 10, **kwargs)
            ids, scores = loaded.search(users, 10, **kwargs)
            np.testing.assert_array_equal(ids_ref, ids, err_msg=f"scorer={scorer}")
            np.testing.assert_array_equal(scores_ref, scores, err_msg=f"scorer={scorer}")

    def test_ivf_pq_operating_point_survives(self, index, built, tmp_path):
        ivf = built("ivf-pq+items")
        loaded = load_ann(save(ivf, tmp_path, "ivf-pq+items"), index)
        assert loaded.default_scorer == "pq"
        assert loaded.rerank_factor == ivf.rerank_factor
        for a, b in zip(loaded.pq, ivf.pq):
            np.testing.assert_array_equal(a.codes, b.codes)
        for a, b in zip(loaded._pq_list_means, ivf._pq_list_means):
            np.testing.assert_array_equal(a, b)


# loader label -> (archive to write, how to load it)
LOADERS = {
    "ivf": ("ivf-pq", IVFIndex.load),
    "tiered": (
        "ivf-pq+items",
        lambda path, index: TieredIVFIndex.load(
            path, index, TieredIndexConfig(hot_fraction=0.5)
        ),
    ),
}


class TestHeaderChecks:
    """One reader, so every loader refuses the same four headers."""

    def test_an_embedding_index_is_not_an_ann_index(self, index, tmp_path):
        path = index.save(str(tmp_path / "index"))
        with pytest.raises(ValueError, match="not an ANN index"):
            load_ann(path, index)

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @pytest.mark.parametrize(
        "kind, fields",
        [
            (
                "quantized_index",
                {"branches": [{"scale": 0.01, "zero": 3}, {"scale": 0.02, "zero": -5}]},
            ),
            ("pq_index", {"rerank_factor": 8}),
        ],
    )
    def test_a_quantized_index_archive_is_no_longer_a_kind(
        self, index, built, tmp_path, loader, kind, fields
    ):
        """The int8 tier and the standalone PQ index are gone, readers
        included: their archive kinds are as foreign as an embedding
        index's."""
        label, load = LOADERS[loader]
        path = save(built(label), tmp_path, label)

        def relabel(metadata):
            metadata.update(kind=kind, format_version=1, **fields)

        edit_header(path, relabel)
        with pytest.raises(ValueError, match=f"'{kind}' artifact, not a"):
            load(path, index)
        with pytest.raises(ValueError, match="not an ANN index"):
            load_ann(path, index)

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @pytest.mark.parametrize("delta, message", [(1, "newer"), (-1, "re-export")])
    def test_other_format_version(self, index, built, tmp_path, loader, delta, message):
        label, load = LOADERS[loader]
        path = save(built(label), tmp_path, label)

        def bump(metadata):
            metadata["format_version"] += delta

        edit_header(path, bump)
        with pytest.raises(ValueError, match=message):
            load(path, index)

    @pytest.mark.parametrize("loader", ["ivf", "tiered"])
    def test_a_v3_ivf_archive_is_refused_not_read(self, index, built, tmp_path, loader):
        """v3 carried the int8 companion; there is no compatibility reader."""
        label, load = LOADERS[loader]
        path = save(built(label), tmp_path, label)

        def as_v3(metadata):
            metadata.update(
                format_version=3,
                quantized=[{"scale": 0.01, "zero": 3}, {"scale": 0.02, "zero": -5}],
                default_scorer="pq",
            )

        edit_header(path, as_v3)
        with pytest.raises(ValueError, match=r"older than this reader \(v4\); re-export"):
            load(path, index)
        with pytest.raises(ValueError, match=r"older than this reader \(v4\); re-export"):
            load_ann(path, index)

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_a_non_residual_pq_payload_is_refused(self, index, built, tmp_path, loader):
        label, load = LOADERS[loader]
        path = save(built(label), tmp_path, label)

        def as_raw(metadata):
            metadata["pq"]["residual"] = False

        edit_header(path, as_raw)
        with pytest.raises(ValueError, match="non-residual PQ codes"):
            load(path, index)

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_wrong_catalog_shape(self, index, built, tmp_path, loader):
        label, load = LOADERS[loader]
        path = save(built(label), tmp_path, label)
        with pytest.raises(ValueError, match="users"):
            load(path, make_index(seed=1, n_users=30, n_items=90))


class TestFormatPins:
    """Same array keys, same header keys — ``ivf_index`` v4 is v3 without
    the int8 companion (``quantized``, ``default_scorer``, ``q_item``)."""

    COMMON = {"kind", "format_version", "model_name", "n_users", "n_items", "sha256"}
    PQ_ARRAYS = {"codes", "codebook0", "codebook1", "codebook2", "rotation"}

    def read(self, ann, tmp_path, label):
        path = save(ann, tmp_path, label)
        with open(os.path.join(path, "metadata.json")) as handle:
            metadata = json.load(handle)
        return metadata, set(metadata["sha256"])

    def test_a_rotation_is_stored_per_branch(self, built, tmp_path):
        metadata, arrays = self.read(built("ivf-pq+rotation"), tmp_path, "ivf-pq+rotation")
        assert all(row["rotation"] for row in metadata["pq"]["branches"])
        assert {name for name in arrays if name.startswith("pq.branch0.")} == {
            f"pq.branch0.{suffix}" for suffix in self.PQ_ARRAYS
        }

    def test_ivf(self, built, tmp_path):
        metadata, arrays = self.read(built("ivf-pq+items"), tmp_path, "ivf-pq+items")
        assert (metadata["kind"], metadata["format_version"]) == ("ivf_index", 4)
        assert set(metadata) == self.COMMON | {
            "n_lists", "nprobe", "seed", "pq", "rerank_factor", "include_items",
        }
        assert set(metadata["pq"]) == {"branches", "rerank_factor", "residual"}
        assert set(metadata["pq"]["branches"][0]) == {"n_subspaces", "splits", "rotation"}
        # branch 0 has 12 dims (3 subspaces of 4), branch 1 has 6 (2 of 3)
        assert arrays == {
            "centroids", "list_indptr", "list_items",
            "pq.branch0.codes", "pq.branch0.codebook0", "pq.branch0.codebook1",
            "pq.branch0.codebook2", "pq.means0",
            "pq.branch1.codes", "pq.branch1.codebook0", "pq.branch1.codebook1",
            "pq.means1",
            "perm.branch0.item", "perm.branch0.item_const",
            "perm.branch1.item", "perm.branch1.item_const",
        }

    def test_plain_ivf_stores_no_companion_payload(self, index, tmp_path):
        ivf = build_ivf(index, n_lists=10, seed=0)
        metadata, arrays = self.read(ivf, tmp_path, "ivf")
        assert metadata["pq"] is None
        assert not metadata["include_items"]
        assert arrays == {"centroids", "list_indptr", "list_items"}


class TestMemoryReports:
    """Every IVF variant answers the same memory_report shape — the contract
    the serving stats gauge publishes."""

    def test_report_shape_is_uniform(self, built):
        for expected_kind in ("ivf", "ivf-pq"):
            report = built(expected_kind).memory_report()
            assert report["kind"] == expected_kind
            assert set(report) >= {"kind", "bytes_total", "bytes_per_item", "tiers"}
            assert set(report["tiers"]) == {"hot", "cold"}
            assert report["bytes_total"] > 0
            assert report["bytes_per_item"] > 0
            assert report["tiers"]["hot"] + report["tiers"]["cold"] >= 0


class TestCorruptionDetection:
    """A damaged archive of *any* IVF variant must surface as a typed
    :class:`ArchiveCorrupted` on load, never as silently-wrong search
    results or a bare ``KeyError``."""

    @pytest.mark.parametrize("label", ["ivf", "ivf-pq"])
    def test_flipped_byte_refuses_to_load(self, index, built, tmp_path, label):
        ann = built(label)
        path = save(ann, tmp_path, label)
        victim = corrupt_archive(path, seed=1)
        with pytest.raises(ArchiveCorrupted, match=victim):
            type(ann).load(path, index)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_deleted_array_is_named(self, index, built, tmp_path, mmap):
        path = save(built("ivf-pq"), tmp_path, "ivf-pq")
        os.remove(os.path.join(path, "pq.branch0.codes.npy"))
        with pytest.raises(ArchiveCorrupted, match="pq.branch0.codes"):
            IVFIndex.load(path, index, mmap=mmap)
