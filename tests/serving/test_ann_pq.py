"""Product quantization: codebooks, ADC scoring, re-rank, OPQ, persistence."""

import numpy as np
import pytest

from repro.core import pup_full
from repro.core.base import ScoreBranch, score_branches
from repro.data import SyntheticConfig, generate
from repro.eval.topk import NEG_INF
from repro.serving import export_index
from repro.serving.ann import (
    PQBranch,
    PQIndex,
    build_ivf,
    build_pq,
    score_pq_block,
    subspace_splits,
)
from repro.serving.ann.pq import build_pq_branch, score_candidates_exact
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
    return dataset, index


def hand_index(item_arrays, user_arrays, consts=None):
    """A minimal EmbeddingIndex from raw branch arrays."""
    branches = []
    consts = consts or [None] * len(item_arrays)
    for user, item, const in zip(user_arrays, item_arrays, consts):
        branches.append(ScoreBranch(user=user, item=item, item_const=const))
    n_items = item_arrays[0].shape[0]
    n_users = user_arrays[0].shape[0]
    return EmbeddingIndex(
        branches,
        item_categories=np.zeros(n_items, dtype=np.int64),
        item_price_levels=np.zeros(n_items, dtype=np.int64),
        n_price_levels=4,
        n_categories=1,
        exclude_indptr=np.zeros(n_users + 1, dtype=np.int64),
        exclude_indices=np.zeros(0, dtype=np.int64),
        item_popularity=np.ones(n_items),
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

    def test_train_sample_still_codes_every_item(self):
        rng = np.random.default_rng(3)
        item = rng.normal(size=(500, 8))
        pb = build_pq_branch(item, subspace_dim=4, n_centroids=16, seed=0,
                             train_sample=64)
        assert pb.codes.shape[0] == 500
        # every code must point at an existing centroid
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
        index = hand_index([item], [user], consts=[const])
        pq = build_pq(index, subspace_dim=4, n_centroids=32, seed=0)
        scores = pq.score(np.arange(20))
        branch = ScoreBranch(user=user, item=pq.pq[0].dequantized(), item_const=const)
        expected = score_branches([branch], np.arange(20), 0, 80)
        np.testing.assert_allclose(scores, expected, rtol=1e-10, atol=1e-10)

    def test_branch_weights_and_user_consts_apply_exactly(self):
        rng = np.random.default_rng(6)
        item = rng.normal(size=(60, 4))
        user = rng.normal(size=(10, 4))
        user_const = rng.normal(size=10)
        branch = ScoreBranch(user=user, item=item, user_const=user_const, weight=0.5)
        pb = build_pq_branch(item, subspace_dim=2, n_centroids=16, seed=0)
        scores = score_pq_block(
            [branch], [pb], [pb.codes], [None], np.arange(10), np.dtype(np.float64)
        )
        ref = ScoreBranch(
            user=user, item=pb.dequantized(), user_const=user_const, weight=0.5
        )
        expected = score_branches([ref], np.arange(10), 0, 60)
        np.testing.assert_allclose(scores, expected, rtol=1e-10, atol=1e-10)


class TestPQIndexSearch:
    def test_returned_scores_are_exact(self, setup):
        """Every non-sentinel score must be the exact kernel's value for
        that (user, item) — ADC only chooses candidates.  (The re-rank
        gather-einsum and the dense matmul may differ in the last ulp, so
        the comparison is allclose at fp64 resolution, not bitwise.)"""
        _, index = setup
        pq = build_pq(index, seed=0)
        users = np.arange(0, 40)
        ids, scores = pq.search(users, 10)
        dense = score_branches(index.branches, users, 0, index.n_items)
        expected = np.take_along_axis(dense, np.maximum(ids, 0), axis=1)
        mask = ids >= 0
        np.testing.assert_allclose(
            scores[mask], expected[mask], rtol=1e-12, atol=1e-12
        )

    def test_full_rerank_reproduces_exact_topk(self, setup):
        """With the re-rank pool covering the whole catalog the search is
        exhaustive exact search — ids and scores must match it."""
        _, index = setup
        pq = build_pq(index, seed=0, rerank_factor=index.n_items)
        users = np.arange(25)
        ids, scores = pq.search(users, 10)
        dense = score_branches(index.branches, users, 0, index.n_items)
        order = np.argsort(-dense, axis=1, kind="stable")[:, :10]
        np.testing.assert_array_equal(ids, order)

    def test_excluded_items_never_resurface(self, setup):
        _, index = setup
        pq = build_pq(index, seed=0)
        users = np.arange(30)
        csr = (index.exclude_indptr, index.exclude_indices)
        ids, _ = pq.search(users, 15, exclude_csr=csr)
        for row, user in enumerate(users):
            banned = set(
                index.exclude_indices[
                    index.exclude_indptr[user]:index.exclude_indptr[user + 1]
                ]
            )
            assert not banned.intersection(ids[row][ids[row] >= 0])

    def test_candidate_mask_restricts_results(self, setup):
        _, index = setup
        pq = build_pq(index, seed=0)
        mask = np.zeros(index.n_items, dtype=bool)
        mask[:40] = True
        ids, _ = pq.search(np.arange(10), 8, candidate_mask=mask)
        valid = ids[ids >= 0]
        assert valid.size and (valid < 40).all()

    def test_memory_report_shape(self, setup):
        _, index = setup
        pq = build_pq(index, seed=0)
        report = pq.memory_report()
        assert report["kind"] == "pq"
        assert report["tiers"]["hot"] == report["bytes_total"]
        assert report["tiers"]["cold"] == 0
        assert report["bytes_per_item"] * index.n_items == pytest.approx(
            pq.memory_bytes()
        )


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
        index = hand_index([item], [user])
        pq = build_pq(index, subspace_dim=4, n_centroids=32, seed=0, rotation=True)
        scores = pq.score(np.arange(15))
        branch = ScoreBranch(user=user, item=pq.pq[0].dequantized())
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
        (IVFADC): means carry one row per (list, branch), and the residual
        container refuses standalone scoring — its codes only mean
        something next to the owning index's list means."""
        _, index = setup
        ivf = build_ivf(index, n_lists=12, nprobe=3, seed=0, pq=True)
        assert ivf.pq.residual
        assert ivf._pq_list_means is not None
        for branch, means in zip(index.branches, ivf._pq_list_means):
            assert means.shape == (ivf.n_lists, branch.item.shape[1])
        with pytest.raises(ValueError, match="residual"):
            ivf.pq.search(np.arange(4), 5)

    def test_residual_adc_orders_within_lists_better(self, setup):
        """Within one list, residual ADC scores must track exact scores at
        least as faithfully as raw-vector ADC — the whole point of the
        IVFADC construction (codebook precision goes to within-list
        differences, which decide the candidate ranks)."""
        _, index = setup
        ivf = build_ivf(index, n_lists=6, nprobe=6, seed=0, pq=True)
        raw = build_pq(index, seed=0)
        users = np.arange(40)
        raw_err = 0.0
        res_err = 0.0
        from repro.serving.ann.pq import score_pq_block

        for lst in range(ivf.n_lists):
            start, stop = int(ivf.list_indptr[lst]), int(ivf.list_indptr[lst + 1])
            if stop == start:
                continue
            exact = ivf._score_segment("exact", users, lst, start, stop)
            res = ivf._score_segment("pq", users, lst, start, stop)
            members = ivf.list_items[start:stop]
            raw_scores = score_pq_block(
                index.branches,
                raw.pq,
                [pb.codes[members] for pb in raw.pq],
                [
                    None if b.item_const is None else b.item_const[members]
                    for b in index.branches
                ],
                users,
                ivf.dtype,
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
        assert clustered_ivf_pq.pq.memory_bytes() * 16 <= factor_bytes

    def test_memory_report_counts_pq_payload(self, setup):
        _, index = setup
        ivf = build_ivf(index, n_lists=12, seed=0, pq=True)
        report = ivf.memory_report()
        assert report["kind"] == "ivf-pq"
        # default scorer is pq, so the per-item payload is the code bytes
        assert report["bytes_per_item"] == pytest.approx(
            ivf.pq.memory_bytes() / index.n_items
        )


class TestPQPersistence:
    @pytest.mark.parametrize("format", ["npz", "dir"])
    def test_roundtrip_preserves_search(self, setup, tmp_path, format):
        _, index = setup
        pq = build_pq(index, seed=0, rotation=True)
        path = pq.save(str(tmp_path / "pq_archive"), format=format)
        loaded = PQIndex.load(path, index)
        users = np.arange(30)
        ids_a, scores_a = pq.search(users, 10)
        ids_b, scores_b = loaded.search(users, 10)
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_array_equal(scores_a, scores_b)
        assert loaded.rerank_factor == pq.rerank_factor

    def test_load_rejects_wrong_kind(self, setup, tmp_path):
        _, index = setup
        ivf = build_ivf(index, n_lists=8, seed=0)
        path = ivf.save(str(tmp_path / "ivf.npz"))
        with pytest.raises(ValueError, match="not a PQ index"):
            PQIndex.load(path, index)
