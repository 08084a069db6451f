"""Batch runtime: ANN candidate-generation mode and in-place refresh."""

import numpy as np
import pytest

from repro.core import pup_full
from repro.scoring import ScoreBranch
from repro.data import SyntheticConfig, generate
from repro.runtime import BatchRuntime, RuntimeConfig, recommend_all
from repro.serving import build_ivf, export_index


@pytest.fixture(scope="module")
def setup():
    config = SyntheticConfig(
        n_users=60, n_items=200, n_categories=4, n_price_levels=4,
        interactions_per_user=8, seed=41,
    )
    dataset = generate(config)[0]
    model = pup_full(dataset, global_dim=10, category_dim=4, rng=np.random.default_rng(4))
    model.eval()
    index = export_index(model, dataset)
    return dataset, index


class TestRecommendAllWithAnn:
    def test_full_probe_bulk_export_rankings_bit_identical_to_exact(self, setup):
        _, index = setup
        ivf = build_ivf(index, n_lists=8, nprobe=8, seed=0)
        exact = recommend_all(index, k=15)
        approx = recommend_all(index, k=15, ann=ivf)
        np.testing.assert_array_equal(exact.users, approx.users)
        np.testing.assert_array_equal(exact.items, approx.items)
        # float64 scores: IVF lists are item ranges off multiples of 8
        np.testing.assert_allclose(exact.scores, approx.scores, rtol=1e-12)

    def test_pruned_bulk_export_respects_exclusions_and_padding(self, setup):
        _, index = setup
        ivf = build_ivf(index, n_lists=8, nprobe=2, seed=0)
        bulk = recommend_all(index, k=10, ann=ivf)
        for row, user in enumerate(bulk.users):
            items = bulk.items[row]
            real = items[items >= 0]
            assert len(np.intersect1d(real, index.excluded_items(int(user)))) == 0
            # dense sentinel contract: -1 ids carry -inf scores
            assert np.isneginf(bulk.scores[row][items < 0]).all()

    def test_ann_mode_identical_across_worker_counts(self, setup):
        _, index = setup
        ivf = build_ivf(index, n_lists=8, nprobe=3, seed=0)
        serial = recommend_all(index, k=10, ann=ivf)
        threaded = recommend_all(index, k=10, ann=ivf, workers=2)
        np.testing.assert_array_equal(serial.items, threaded.items)

    def test_candidate_pools_and_ann_are_mutually_exclusive(self, setup):
        _, index = setup
        ivf = build_ivf(index, n_lists=8, nprobe=2, seed=0)
        csr = (index.exclude_indptr, index.exclude_indices)
        with BatchRuntime(index, RuntimeConfig(), exclude_csr=csr, ann=ivf) as runtime:
            assert runtime.ann is ivf
            with pytest.raises(ValueError, match="mutually exclusive"):
                runtime.rank([0, 1], 5, candidate_items={0: None, 1: None})

    def test_ann_search_profiled_under_its_own_phase(self, setup):
        from repro.eval.ranking import eval_profile
        from repro.obs import Tracer

        _, index = setup
        ivf = build_ivf(index, n_lists=8, nprobe=2, seed=0)
        tracer = Tracer()
        recommend_all(index, k=5, ann=ivf, tracer=tracer)
        phases = eval_profile(tracer)["phases"]
        assert set(phases) == {"ann_search"}
        assert phases["ann_search"]["seconds"] > 0
        assert phases["ann_search"]["calls"] == eval_profile(tracer)["counters"]["chunks"]


class TestRefresh:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_refresh_matches_fresh_runtime(self, setup, workers):
        """After refresh(new_branches), rankings == a runtime built on them."""
        _, index = setup
        rng = np.random.default_rng(9)
        new_branches = [
            ScoreBranch(
                user=rng.normal(size=branch.user.shape),
                item=rng.normal(size=branch.item.shape),
            )
            for branch in index.branches
        ]
        config = RuntimeConfig(workers=workers)
        users = np.arange(40)
        with BatchRuntime(index.branches, config) as runtime:
            before = runtime.rank(users, 10)[1]
            runtime.refresh(new_branches)
            after = runtime.rank(users, 10)[1]
        with BatchRuntime(new_branches, RuntimeConfig()) as fresh:
            expected = fresh.rank(users, 10)[1]
        np.testing.assert_array_equal(after, expected)
        assert not np.array_equal(before, after)

    def test_refresh_keeps_exclusions_by_default(self, setup):
        _, index = setup
        csr = (index.exclude_indptr, index.exclude_indices)
        with BatchRuntime(index, RuntimeConfig(), exclude_csr=csr) as runtime:
            runtime.refresh(index.branches)
            assert runtime.has_exclusions
            _, ids, _ = runtime.rank(np.arange(20), 10)
        for row in range(20):
            excluded = index.excluded_items(row)
            assert len(np.intersect1d(ids[row], excluded)) == 0

    def test_refresh_can_swap_ann(self, setup):
        _, index = setup
        ivf = build_ivf(index, n_lists=8, nprobe=8, seed=0)
        with BatchRuntime(index, RuntimeConfig()) as runtime:
            exact = runtime.rank(np.arange(20), 10)[1]
            runtime.refresh(index, ann=ivf)
            assert runtime.ann is ivf
            approx = runtime.rank(np.arange(20), 10)[1]
            np.testing.assert_array_equal(exact, approx)  # full probe
            runtime.refresh(index, ann=None)
            assert runtime.ann is None

    def test_refresh_rejects_catalog_change(self, setup):
        _, index = setup
        smaller = [
            ScoreBranch(user=branch.user, item=branch.item[:-1])
            for branch in index.branches
        ]
        with BatchRuntime(index, RuntimeConfig()) as runtime:
            with pytest.raises(ValueError, match="changed the catalog"):
                runtime.refresh(smaller)

