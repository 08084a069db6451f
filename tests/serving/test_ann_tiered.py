"""Hot/cold tiered IVF: ceiling enforcement, parity with resident search."""

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.experiments.artifacts import build_ann, stage_ann
from repro.serving import export_index
from repro.serving.ann import (
    IVFIndex,
    TieredIndexConfig,
    TieredIVFIndex,
    build_ivf,
    load_ann,
)


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    config = SyntheticConfig(
        n_users=80, n_items=320, n_categories=5, n_price_levels=4,
        interactions_per_user=8, seed=21,
    )
    dataset = generate(config)[0]
    model = pup_full(dataset, global_dim=12, category_dim=6, rng=np.random.default_rng(3))
    model.eval()
    index = export_index(model, dataset)
    ivf = build_ivf(index, n_lists=16, nprobe=4, seed=0, pq=True)
    path = ivf.save(str(tmp_path_factory.mktemp("tiered") / "ann"), include_items=True)
    return dataset, index, ivf, path


class TestConfig:
    def test_requires_exactly_one_budget(self):
        with pytest.raises(ValueError, match="exactly one"):
            TieredIndexConfig()
        with pytest.raises(ValueError, match="exactly one"):
            TieredIndexConfig(hot_fraction=0.5, memory_ceiling_bytes=1000)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            TieredIndexConfig(hot_fraction=1.5)

    def test_rejects_negative_ceiling(self):
        with pytest.raises(ValueError):
            TieredIndexConfig(memory_ceiling_bytes=-1)


class TestTierSelection:
    def test_ceiling_is_respected(self, setup):
        _, index, _, path = setup
        ceiling = 200_000
        tiered = TieredIVFIndex.load(
            path, index, TieredIndexConfig(memory_ceiling_bytes=ceiling)
        )
        report = tiered.memory_report()
        assert report["tiers"]["hot"] <= ceiling
        assert report["memory_ceiling_bytes"] == ceiling

    def test_selection_is_deterministic(self, setup):
        _, index, _, path = setup
        config = TieredIndexConfig(memory_ceiling_bytes=200_000)
        a = TieredIVFIndex.load(path, index, config)
        b = TieredIVFIndex.load(path, index, config)
        np.testing.assert_array_equal(a.hot_lists, b.hot_lists)

    def test_hot_fraction_zero_keeps_everything_cold(self, setup):
        _, index, _, path = setup
        tiered = TieredIVFIndex.load(
            path, index, TieredIndexConfig(hot_fraction=0.0)
        )
        assert tiered.hot_lists.size == 0
        report = tiered.memory_report()
        assert report["tiers"]["hot"] == tiered.fixed_resident_bytes()

    def test_hot_fraction_one_pins_every_list(self, setup):
        _, index, _, path = setup
        tiered = TieredIVFIndex.load(
            path, index, TieredIndexConfig(hot_fraction=1.0)
        )
        assert tiered.hot_lists.size == tiered.n_lists
        assert tiered.memory_report()["tiers"]["cold"] == 0

    def test_heaviest_lists_selected_first(self, setup):
        """Under a tight budget, every admitted list must carry at least
        as much access mass as any skipped list it could swap with under
        the byte budget (greedy by mass, deterministic on ties)."""
        _, index, _, path = setup
        tiered = TieredIVFIndex.load(
            path, index, TieredIndexConfig(hot_fraction=0.25)
        )
        mass = tiered.access_mass()
        if tiered.hot_lists.size and tiered.hot_lists.size < tiered.n_lists:
            cold = np.setdiff1d(np.arange(tiered.n_lists), tiered.hot_lists)
            assert mass[tiered.hot_lists].min() >= 0
            # the heaviest list overall is always admitted first (it fits
            # unless it alone exceeds the budget, which 0.25x payload won't)
            assert np.argmax(mass) in tiered.hot_lists or mass.max() == 0

    def test_cli_shaped_build_keeps_only_what_search_reads_resident(self, setup, tmp_path):
        """``repro export --ann-kind ivf-pq --memory-ceiling N`` builds
        with ``build_ann`` and stages with ``stage_ann``; the floor charged
        against the ceiling is the sum of the arrays a search reads, and
        nothing else (it used to carry two copies of unused int8 codes)."""
        _, index, _, _ = setup
        path = stage_ann(build_ann(index, "ivf-pq"), str(tmp_path), tiered=True)
        tiered = load_ann(
            path, index, mmap=True, tiered=TieredIndexConfig(memory_ceiling_bytes=200_000)
        )
        expected = (
            tiered.centroids.nbytes
            + tiered.list_indptr.nbytes
            + tiered.list_items.nbytes
            + tiered._item_position.nbytes
            + tiered._item_list.nbytes
            + sum(codes.nbytes for codes in tiered._perm_pq_codes)
            + sum(cb.nbytes for pb in tiered.pq for cb in pb.codebooks)
            + sum(means.nbytes for means in tiered._pq_list_means)
        )
        assert tiered.fixed_resident_bytes() == expected

    def test_memory_report_totals_are_consistent(self, setup):
        _, index, _, path = setup
        tiered = TieredIVFIndex.load(
            path, index, TieredIndexConfig(hot_fraction=0.5)
        )
        report = tiered.memory_report()
        assert report["kind"] == "tiered-ivf-pq"
        assert report["bytes_total"] == report["tiers"]["hot"] + report["tiers"]["cold"]
        assert 0 <= report["hot_lists"] <= report["n_lists"]


class TestSearchParity:
    """Tiering changes where bytes live, never their values: every search
    must be bit-identical to the non-tiered index loaded from the same
    archive."""

    @pytest.mark.parametrize("hot_fraction", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("scorer", ["exact", "pq"])
    def test_matches_resident_index(self, setup, hot_fraction, scorer):
        _, index, _, path = setup
        resident = IVFIndex.load(path, index)
        tiered = TieredIVFIndex.load(
            path, index, TieredIndexConfig(hot_fraction=hot_fraction)
        )
        users = np.arange(40)
        csr = (index.exclude_indptr, index.exclude_indices)
        ids_a, scores_a = resident.search(users, 10, scorer=scorer, exclude_csr=csr)
        ids_b, scores_b = tiered.search(users, 10, scorer=scorer, exclude_csr=csr)
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_array_equal(scores_a, scores_b)

    def test_full_probe_exact_matches_in_memory_build(self, setup):
        """End to end: archive roundtrip + tiering + full probe must still
        reproduce the original in-memory index's exact rankings bitwise."""
        _, index, ivf, path = setup
        tiered = TieredIVFIndex.load(
            path, index, TieredIndexConfig(hot_fraction=0.5)
        )
        users = np.arange(50)
        ids_a, scores_a = ivf.search(
            users, 10, nprobe=ivf.n_lists, scorer="exact"
        )
        ids_b, scores_b = tiered.search(
            users, 10, nprobe=tiered.n_lists, scorer="exact"
        )
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_array_equal(scores_a, scores_b)


class TestLoading:
    def test_rejects_archive_without_items(self, setup, tmp_path):
        _, index, ivf, _ = setup
        bare = ivf.save(str(tmp_path / "bare"), include_items=False)
        with pytest.raises(ValueError, match="include_items"):
            TieredIVFIndex.load(
                bare, index, TieredIndexConfig(hot_fraction=0.5)
            )

    def test_rejects_wrong_catalog_shape(self, setup):
        _, index, _, path = setup
        config = SyntheticConfig(
            n_users=30, n_items=90, n_categories=3, n_price_levels=4,
            interactions_per_user=5, seed=1,
        )
        other_dataset = generate(config)[0]
        other_model = pup_full(
            other_dataset, global_dim=12, category_dim=6,
            rng=np.random.default_rng(1),
        )
        other_model.eval()
        other = export_index(other_model, other_dataset)
        with pytest.raises(ValueError, match="users"):
            TieredIVFIndex.load(
                path, other, TieredIndexConfig(hot_fraction=0.5)
            )

    def test_mmap_false_also_works(self, setup):
        _, index, _, path = setup
        tiered = TieredIVFIndex.load(
            path, index, TieredIndexConfig(hot_fraction=0.5), mmap=False
        )
        users = np.arange(10)
        ids, _ = tiered.search(users, 5)
        assert ids.shape == (10, 5)
