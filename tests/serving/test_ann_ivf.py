"""IVF two-stage search: full-probe exactness, masking, persistence."""

import numpy as np
import pytest

from repro.core import pup_full
from repro.core.base import ScoreBranch
from repro.data import SyntheticConfig, generate
from repro.eval import topk_rankings
from repro.serving import RetrievalEngine, export_index
from repro.serving.ann import IVFIndex, build_ivf, kmeans
from repro.serving.index import EmbeddingIndex


@pytest.fixture(scope="module")
def setup():
    config = SyntheticConfig(
        n_users=70, n_items=260, n_categories=5, n_price_levels=4,
        interactions_per_user=8, seed=13,
    )
    dataset = generate(config)[0]
    model = pup_full(dataset, global_dim=12, category_dim=6, rng=np.random.default_rng(7))
    model.eval()
    index = export_index(model, dataset)
    ivf = build_ivf(index, n_lists=12, nprobe=3, seed=0)
    return dataset, model, index, ivf


def integer_index(n_users=24, n_items=60, dim=4, seed=0):
    """Integer-valued factors: every dot product is exact in float64, so
    score ties are real and full-probe parity must hold bitwise."""
    rng = np.random.default_rng(seed)
    user = rng.integers(-3, 4, size=(n_users, dim)).astype(np.float64)
    item = rng.integers(-3, 4, size=(n_items, dim)).astype(np.float64)
    branch = ScoreBranch(user=user, item=item)
    return EmbeddingIndex(
        [branch],
        item_categories=np.zeros(n_items, dtype=np.int64),
        item_price_levels=np.zeros(n_items, dtype=np.int64),
        n_price_levels=4,
        n_categories=1,
        exclude_indptr=np.zeros(n_users + 1, dtype=np.int64),
        exclude_indices=np.zeros(0, dtype=np.int64),
        item_popularity=np.ones(n_items),
    )


class TestKMeans:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(120, 6))
        c1, l1 = kmeans(points, 8, seed=4)
        c2, l2 = kmeans(points, 8, seed=4)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(l1, l2)

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(64, 3))
        _, labels = kmeans(points, 16, seed=0)
        assert len(np.unique(labels)) == 16

    def test_clusters_clipped_to_points(self):
        centroids, labels = kmeans(np.arange(6.0)[:, None], 40, seed=0)
        assert centroids.shape[0] == 6
        assert len(np.unique(labels)) == 6

    def test_duplicate_heavy_points_never_produce_nan_or_empty_clusters(self):
        """Regression: reseeding an empty cluster from a singleton donor used
        to zero that donor out, yielding 0/0 NaN centroid rows."""
        rng = np.random.default_rng(24)
        points = np.vstack(
            [np.zeros((18, 3)), np.full((1, 3), 50.0), 1e-9 * rng.normal(size=(5, 3))]
        )
        centroids, labels = kmeans(points, 7, seed=24, iters=3)
        assert np.isfinite(centroids).all()
        assert len(np.unique(labels)) == 7

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(6)
        centers = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0]])
        points = np.vstack(
            [center + 0.1 * rng.normal(size=(30, 2)) for center in centers]
        )
        _, labels = kmeans(points, 3, seed=1)
        for group in range(3):
            assert len(np.unique(labels[group * 30 : (group + 1) * 30])) == 1


class TestStructure:
    def test_lists_partition_the_catalog(self, setup):
        _, _, index, ivf = setup
        np.testing.assert_array_equal(
            np.sort(ivf.list_items), np.arange(index.n_items)
        )
        assert ivf.list_indptr[-1] == index.n_items
        assert (ivf.list_sizes() > 0).all()

    def test_items_ascend_within_each_list(self, setup):
        _, _, _, ivf = setup
        for lst in range(ivf.n_lists):
            members = ivf.list_items[ivf.list_indptr[lst] : ivf.list_indptr[lst + 1]]
            assert (np.diff(members) > 0).all()

    def test_build_is_deterministic(self, setup):
        _, _, index, _ = setup
        a = build_ivf(index, n_lists=12, nprobe=3, seed=9)
        b = build_ivf(index, n_lists=12, nprobe=3, seed=9)
        np.testing.assert_array_equal(a.list_items, b.list_items)
        np.testing.assert_array_equal(a.centroids, b.centroids)


class TestFullProbeExactness:
    def test_full_probe_ids_bit_identical_to_exact_search(self, setup):
        """Acceptance criterion: nprobe = n_lists reproduces exact rankings."""
        dataset, model, index, ivf = setup
        users = np.arange(dataset.n_users)
        expected = topk_rankings(model, dataset, users, k=20)
        csr = (index.exclude_indptr, index.exclude_indices)
        ids, _ = ivf.search(users, 20, nprobe=ivf.n_lists, exclude_csr=csr)
        for row, user in enumerate(users):
            np.testing.assert_array_equal(ids[row], expected[int(user)])

    def test_full_probe_scores_match_exact_engine_to_ulp(self, setup):
        _, _, index, ivf = setup
        users = np.arange(30)
        engine = RetrievalEngine(index)
        reference = engine.topk(users, k=15, exclude_train=True)
        ids, scores = ivf.search(
            users, 15, nprobe=ivf.n_lists,
            exclude_csr=(index.exclude_indptr, index.exclude_indices),
        )
        for row, result in enumerate(reference):
            np.testing.assert_array_equal(ids[row], result.items)
            np.testing.assert_allclose(scores[row], result.scores, rtol=1e-12)

    def test_full_probe_bitwise_with_integer_ties(self):
        """Crafted integer factors: ties are exact, scores must match bitwise
        and tie-breaking must pick ascending item ids across lists."""
        index = integer_index()
        ivf = build_ivf(index, n_lists=5, nprobe=5, seed=2)
        users = np.arange(index.n_users)
        engine = RetrievalEngine(index)
        reference = engine.topk(users, k=25, exclude_train=False)
        ids, scores = ivf.search(users, 25, nprobe=5)
        for row, result in enumerate(reference):
            np.testing.assert_array_equal(ids[row], result.items)
            np.testing.assert_array_equal(scores[row], result.scores)

    def test_oversized_nprobe_clips_to_all_lists(self, setup):
        _, _, _, ivf = setup
        a, _ = ivf.search(np.arange(10), 8, nprobe=ivf.n_lists)
        b, _ = ivf.search(np.arange(10), 8, nprobe=10_000)
        np.testing.assert_array_equal(a, b)


class TestOperatingPoints:
    def test_recall_is_monotone_in_nprobe_on_average(self, setup):
        dataset, model, _, ivf = setup
        users = np.arange(dataset.n_users)
        exact = topk_rankings(model, dataset, users, k=10, exclude_train=False)

        def recall(nprobe):
            ids, _ = ivf.search(users, 10, nprobe=nprobe)
            return np.mean(
                [
                    len(np.intersect1d(ids[row][ids[row] >= 0], exact[int(u)])) / 10
                    for row, u in enumerate(users)
                ]
            )

        r1, r6, rall = recall(1), recall(6), recall(ivf.n_lists)
        assert r1 <= r6 + 1e-9 <= rall + 2e-9
        assert rall == 1.0

    def test_default_nprobe_holds_the_recall_floor(self, clustered_catalog):
        index, recalls = clustered_catalog
        ivf = build_ivf(index, seed=0)
        assert ivf.nprobe < ivf.n_lists  # a real operating point, not full probe
        assert min(recalls(ivf).values()) >= 0.95

    def test_unknown_scorer_is_refused(self, setup):
        """``int8`` was a scorer once; it is now as unknown as any other."""
        _, _, _, ivf = setup
        assert ivf.scorers == ("exact",)
        with pytest.raises(ValueError, match="scorer must be one of"):
            ivf.search(np.arange(3), 5, scorer="int8")


class TestMasking:
    def test_exclusions_never_surface(self, setup):
        dataset, _, index, ivf = setup
        users = np.arange(dataset.n_users)
        csr = (index.exclude_indptr, index.exclude_indices)
        ids, _ = ivf.search(users, 15, exclude_csr=csr)
        for row, user in enumerate(users):
            kept = ids[row][ids[row] >= 0]
            assert len(np.intersect1d(kept, index.excluded_items(int(user)))) == 0

    def test_candidate_mask_applies_at_rerank(self, setup):
        _, _, index, ivf = setup
        mask = np.zeros(index.n_items, dtype=bool)
        mask[::3] = True
        ids, scores = ivf.search(np.arange(20), 10, nprobe=ivf.n_lists, candidate_mask=mask)
        kept = ids[ids >= 0]
        assert len(kept) and np.all(kept % 3 == 0)

    def test_mask_does_not_change_probe_geometry(self, setup):
        """Filters restrict the re-rank, not which lists are probed."""
        _, _, index, ivf = setup
        users = np.arange(12)
        probes = ivf.probe(users)
        mask = np.zeros(index.n_items, dtype=bool)
        mask[: index.n_items // 4] = True
        np.testing.assert_array_equal(probes, ivf.probe(users))
        # masked full-probe == exact search restricted to the mask
        engine = RetrievalEngine(index)
        from repro.serving import AllowListFilter

        allowed = np.flatnonzero(mask)
        reference = engine.topk(
            users, 10, exclude_train=False, filters=[AllowListFilter(allowed)]
        )
        ids, _ = ivf.search(users, 10, nprobe=ivf.n_lists, candidate_mask=mask)
        for row, result in enumerate(reference):
            kept = ids[row][ids[row] >= 0]
            np.testing.assert_array_equal(kept, result.items)

    def test_pool_smaller_than_k_pads_with_sentinels(self, setup):
        _, _, index, ivf = setup
        mask = np.zeros(index.n_items, dtype=bool)
        mask[:4] = True
        ids, scores = ivf.search(np.arange(5), 10, nprobe=ivf.n_lists, candidate_mask=mask)
        assert ids.shape == (5, 10)
        assert (ids[:, 4:] == -1).all() if ids.shape[1] > 4 else True
        assert np.isneginf(scores[ids == -1]).all()


class TestPersistence:
    @pytest.mark.parametrize("fmt", ["npz", "dir"])
    def test_roundtrip_reproduces_searches(self, setup, fmt, tmp_path):
        _, _, index, ivf = setup
        path = ivf.save(str(tmp_path / "ann"), format=fmt)
        loaded = IVFIndex.load(path, index)
        assert loaded.nprobe == ivf.nprobe and loaded.n_lists == ivf.n_lists
        users = np.arange(25)
        a_ids, a_scores = ivf.search(users, 12, scorer="exact")
        b_ids, b_scores = loaded.search(users, 12, scorer="exact")
        np.testing.assert_array_equal(a_ids, b_ids)
        np.testing.assert_array_equal(a_scores, b_scores)

    def test_load_rejects_wrong_artifact(self, setup, tmp_path):
        _, _, index, _ = setup
        path = index.save(str(tmp_path / "index.npz"))
        with pytest.raises(ValueError, match="not an ANN index"):
            IVFIndex.load(path, index)

    def test_load_rejects_mismatched_catalog(self, setup, tmp_path):
        _, _, index, ivf = setup
        path = ivf.save(str(tmp_path / "ann.npz"))
        other = integer_index(n_users=index.n_users, n_items=index.n_items + 1)
        with pytest.raises(ValueError, match="built for"):
            IVFIndex.load(path, other)
