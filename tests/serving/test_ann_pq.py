"""Product quantization: codebooks, ADC scoring, OPQ, and IVF's residual PQ fine stage."""

import numpy as np
import pytest

from repro.core import pup_full
from repro.scoring import ScoreBranch, score_branches
from repro.data import SyntheticConfig, generate
from repro.serving import export_index
from repro.serving.ann import build_ivf, score_pq_block, subspace_splits
from repro.serving.ann.pq import build_pq_branch, score_candidates_exact


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
    return dataset, index


def adc_scores(branches, pq_branches, users):
    """Plain (non-residual) ADC over the whole catalog: zero list means."""
    return score_pq_block(
        branches,
        pq_branches,
        [pb.codes for pb in pq_branches],
        [b.item_const for b in branches],
        users,
        np.dtype(np.float64),
        means=[np.zeros(pb.d) for pb in pq_branches],
    )


class TestSubspaceSplits:
    def test_even_split(self):
        assert subspace_splits(8, 4) == [(0, 4), (4, 8)]

    def test_uneven_split_covers_every_dim(self):
        splits = subspace_splits(10, 4)
        assert splits[0][0] == 0 and splits[-1][1] == 10
        assert all(a[1] == b[0] for a, b in zip(splits, splits[1:]))
        assert len(splits) == 3

    def test_dim_smaller_than_subspace(self):
        assert subspace_splits(3, 8) == [(0, 3)]

    def test_rejects_bad_subspace_dim(self):
        with pytest.raises(ValueError):
            subspace_splits(8, 0)


class TestBuildPQBranch:
    def test_codes_are_uint8_one_per_subspace(self):
        rng = np.random.default_rng(0)
        item = rng.normal(size=(300, 12))
        pb = build_pq_branch(item, subspace_dim=4, n_centroids=16, seed=0)
        assert pb.codes.dtype == np.uint8
        assert pb.codes.shape == (300, 3)
        assert pb.d == 12

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        item = rng.normal(size=(200, 8))
        a = build_pq_branch(item, subspace_dim=4, n_centroids=32, seed=5)
        b = build_pq_branch(item, subspace_dim=4, n_centroids=32, seed=5)
        np.testing.assert_array_equal(a.codes, b.codes)
        for cb_a, cb_b in zip(a.codebooks, b.codebooks):
            np.testing.assert_array_equal(cb_a, cb_b)

    def test_reconstruction_improves_with_more_centroids(self):
        rng = np.random.default_rng(2)
        item = rng.normal(size=(400, 8))
        coarse = build_pq_branch(item, subspace_dim=4, n_centroids=4, seed=0)
        fine = build_pq_branch(item, subspace_dim=4, n_centroids=128, seed=0)
        err = lambda pb: float(np.mean((pb.dequantized() - item) ** 2))
        assert err(fine) < err(coarse)

    def test_every_item_gets_a_code_of_an_existing_centroid(self):
        rng = np.random.default_rng(3)
        item = rng.normal(size=(500, 8))
        pb = build_pq_branch(item, subspace_dim=4, n_centroids=16, seed=0)
        assert pb.codes.shape[0] == 500
        for m, cb in enumerate(pb.codebooks):
            assert pb.codes[:, m].max() < cb.shape[0]

    def test_rejects_too_many_centroids(self):
        with pytest.raises(ValueError):
            build_pq_branch(np.zeros((10, 4)), n_centroids=257)

    def test_memory_accounting(self):
        rng = np.random.default_rng(4)
        item = rng.normal(size=(128, 8))
        pb = build_pq_branch(item, subspace_dim=4, n_centroids=16, seed=0)
        assert pb.code_bytes() == 128 * 2
        assert pb.table_bytes() == sum(cb.nbytes for cb in pb.codebooks)


class TestADCScoring:
    def test_adc_matches_scoring_dequantized_factors(self):
        """ADC with exact queries == exact scoring of the reconstructed
        items: the LUT decomposition must introduce no extra error."""
        rng = np.random.default_rng(5)
        item = rng.normal(size=(80, 8))
        user = rng.normal(size=(20, 8))
        const = rng.normal(size=80)
        pb = build_pq_branch(item, subspace_dim=4, n_centroids=32, seed=0)
        branch = ScoreBranch(user=user, item=item, item_const=const)
        scores = adc_scores([branch], [pb], np.arange(20))
        ref = ScoreBranch(user=user, item=pb.dequantized(), item_const=const)
        expected = score_branches([ref], np.arange(20), 0, 80)
        np.testing.assert_allclose(scores, expected, rtol=1e-10, atol=1e-10)

    def test_branch_weights_and_user_consts_apply_exactly(self):
        rng = np.random.default_rng(6)
        item = rng.normal(size=(60, 4))
        user = rng.normal(size=(10, 4))
        user_const = rng.normal(size=10)
        branch = ScoreBranch(user=user, item=item, user_const=user_const, weight=0.5)
        pb = build_pq_branch(item, subspace_dim=2, n_centroids=16, seed=0)
        scores = adc_scores([branch], [pb], np.arange(10))
        ref = ScoreBranch(
            user=user, item=pb.dequantized(), user_const=user_const, weight=0.5
        )
        expected = score_branches([ref], np.arange(10), 0, 60)
        np.testing.assert_allclose(scores, expected, rtol=1e-10, atol=1e-10)


class TestOPQRotation:
    def test_rotation_is_orthogonal(self):
        rng = np.random.default_rng(7)
        item = rng.normal(size=(300, 8)) @ rng.normal(size=(8, 8))
        pb = build_pq_branch(item, subspace_dim=4, n_centroids=16, seed=0,
                             rotation=True)
        assert pb.rotation is not None
        np.testing.assert_allclose(
            pb.rotation @ pb.rotation.T, np.eye(8), atol=1e-10
        )

    def test_rotated_adc_matches_dequantized_scoring(self):
        """Orthogonal rotations preserve inner products, so rotated ADC
        must still equal exact scoring of the (unrotated) reconstruction."""
        rng = np.random.default_rng(8)
        item = rng.normal(size=(90, 8)) @ rng.normal(size=(8, 8))
        user = rng.normal(size=(15, 8))
        pb = build_pq_branch(item, subspace_dim=4, n_centroids=32, seed=0, rotation=True)
        scores = adc_scores([ScoreBranch(user=user, item=item)], [pb], np.arange(15))
        branch = ScoreBranch(user=user, item=pb.dequantized())
        expected = score_branches([branch], np.arange(15), 0, 90)
        np.testing.assert_allclose(scores, expected, rtol=1e-9, atol=1e-9)

    def test_rotation_helps_on_correlated_data(self):
        """On strongly cross-subspace-correlated factors the learned
        rotation must not hurt reconstruction (that is its whole job)."""
        rng = np.random.default_rng(9)
        latent = rng.normal(size=(500, 2))
        mix = rng.normal(size=(2, 8))
        item = latent @ mix + 0.05 * rng.normal(size=(500, 8))
        plain = build_pq_branch(item, subspace_dim=4, n_centroids=8, seed=0)
        opq = build_pq_branch(item, subspace_dim=4, n_centroids=8, seed=0,
                              rotation=True)
        err_plain = float(np.mean((plain.dequantized() - item) ** 2))
        err_opq = float(np.mean((opq.dequantized() - item) ** 2))
        assert err_opq <= err_plain * 1.05


class TestExactRerankKernel:
    def test_matches_dense_scoring_on_gathered_columns(self, setup):
        _, index = setup
        rng = np.random.default_rng(10)
        users = np.arange(12)
        cand = rng.integers(0, index.n_items, size=(12, 9))
        got = score_candidates_exact(
            index.branches, users, cand, np.dtype(np.float64)
        )
        dense = score_branches(index.branches, users, 0, index.n_items)
        np.testing.assert_allclose(
            got, np.take_along_axis(dense, cand, axis=1), rtol=1e-12, atol=1e-12
        )


class TestIVFWithPQFineStage:
    def test_pq_becomes_default_scorer(self, setup):
        _, index = setup
        ivf = build_ivf(index, n_lists=12, nprobe=3, seed=0, pq=True)
        assert ivf.default_scorer == "pq"
        assert "pq" in ivf.scorers
        assert ivf.kind == "ivf-pq"

    def test_companion_codes_are_residual(self, setup):
        """The IVF companion encodes residuals against per-list means
        (IVFADC): one code row per catalog item and one mean row per
        (list, branch) — its codes only mean something next to them."""
        _, index = setup
        ivf = build_ivf(index, n_lists=12, nprobe=3, seed=0, pq=True)
        assert len(ivf.pq) == len(index.branches)
        for branch, pb, means in zip(index.branches, ivf.pq, ivf._pq_list_means):
            assert pb.codes.shape[0] == index.n_items
            assert means.shape == (ivf.n_lists, branch.item.shape[1])

    def test_residual_adc_orders_within_lists_better(self, setup):
        """Within one list, residual ADC scores must track exact scores at
        least as faithfully as raw-vector ADC — the whole point of the
        IVFADC construction (codebook precision goes to within-list
        differences, which decide the candidate ranks)."""
        _, index = setup
        ivf = build_ivf(index, n_lists=6, nprobe=6, seed=0, pq=True)
        raw = [
            build_pq_branch(branch.item, seed=104729 * b)
            for b, branch in enumerate(index.branches)
        ]
        users = np.arange(40)
        raw_err = 0.0
        res_err = 0.0
        for lst in range(ivf.n_lists):
            start, stop = int(ivf.list_indptr[lst]), int(ivf.list_indptr[lst + 1])
            if stop == start:
                continue
            exact = ivf._score_segment("exact", users, lst, start, stop)
            res = ivf._score_segment("pq", users, lst, start, stop)
            members = ivf.list_items[start:stop]
            raw_scores = score_pq_block(
                index.branches,
                raw,
                [pb.codes[members] for pb in raw],
                [
                    None if b.item_const is None else b.item_const[members]
                    for b in index.branches
                ],
                users,
                ivf.dtype,
                means=[np.zeros(pb.d) for pb in raw],
            )
            res_err += float(((res - exact) ** 2).sum())
            raw_err += float(((raw_scores - exact) ** 2).sum())
        assert res_err <= raw_err

    def test_full_probe_full_rerank_is_exact(self, setup):
        """Full probe + a re-rank pool covering the catalog must reproduce
        exact rankings (same tie-breaking as exact search)."""
        _, index = setup
        ivf = build_ivf(index, n_lists=12, seed=0, pq=True,
                        rerank_factor=index.n_items)
        users = np.arange(30)
        ids, scores = ivf.search(users, 10, nprobe=ivf.n_lists, scorer="pq")
        exact_ids, exact_scores = ivf.search(
            users, 10, nprobe=ivf.n_lists, scorer="exact"
        )
        np.testing.assert_array_equal(ids, exact_ids)
        np.testing.assert_allclose(scores, exact_scores, rtol=1e-12, atol=1e-12)

    def test_pq_scorer_respects_exclusions(self, setup):
        _, index = setup
        ivf = build_ivf(index, n_lists=12, nprobe=6, seed=0, pq=True)
        users = np.arange(40)
        csr = (index.exclude_indptr, index.exclude_indices)
        ids, _ = ivf.search(users, 12, scorer="pq", exclude_csr=csr)
        for row, user in enumerate(users):
            banned = set(
                index.exclude_indices[
                    index.exclude_indptr[user]:index.exclude_indptr[user + 1]
                ]
            )
            assert not banned.intersection(ids[row][ids[row] >= 0])

    def test_pq_scores_are_exact_after_rerank(self, setup):
        _, index = setup
        ivf = build_ivf(index, n_lists=12, nprobe=6, seed=0, pq=True)
        users = np.arange(20)
        ids, scores = ivf.search(users, 8, scorer="pq")
        dense = score_branches(index.branches, users, 0, index.n_items)
        expected = np.take_along_axis(dense, np.maximum(ids, 0), axis=1)
        mask = ids >= 0
        np.testing.assert_allclose(
            scores[mask], expected[mask], rtol=1e-12, atol=1e-12
        )

    @pytest.fixture(scope="class")
    def clustered_ivf_pq(self, clustered_catalog):
        return build_ivf(clustered_catalog[0], pq=True, seed=0)

    def test_default_point_holds_the_recall_floor(self, clustered_catalog, clustered_ivf_pq):
        _, recalls = clustered_catalog
        ivf = clustered_ivf_pq
        assert ivf.default_scorer == "pq" and ivf.nprobe < ivf.n_lists
        assert min(recalls(ivf).values()) >= 0.95

    def test_codes_are_16x_smaller_than_float32_factors(self, clustered_catalog, clustered_ivf_pq):
        """Default ``subspace_dim=4``: one uint8 code per four float32 factors."""
        index, _ = clustered_catalog
        factor_bytes = sum(branch.item.nbytes for branch in index.branches)
        assert sum(pb.code_bytes() for pb in clustered_ivf_pq.pq) * 16 <= factor_bytes

    def test_memory_report_counts_pq_payload(self, setup):
        _, index = setup
        ivf = build_ivf(index, n_lists=12, seed=0, pq=True)
        report = ivf.memory_report()
        assert report["kind"] == "ivf-pq"
        # default scorer is pq, so the per-item payload is the code bytes
        assert report["bytes_per_item"] == pytest.approx(
            sum(pb.code_bytes() for pb in ivf.pq) / index.n_items
        )
