"""Determinism of the parallel batch-inference runtime.

The contract under test: the worker count is an execution knob, and the
item-shard layout (varied here through the ``item_block`` fixture)
is not a knob at all — rankings, scores, and metrics are bit-identical for
every setting and every layout, and identical to the serial reference path.
"""

import numpy as np
import pytest

from repro.core import pup_full
from repro.core.base import Recommender
from repro.scoring import ScoreBranch, gemm_cols, gemm_rows, score_branches
from repro.data import SyntheticConfig, generate
from repro.eval.ranking import evaluate, metrics_from_rankings, topk_rankings
from repro.eval.topk import masked_topk
from repro.profiling import Profiler
from repro.runtime import BatchRuntime, RuntimeConfig, ShardedIndex, recommend_all
from repro.runtime.sharded import _Buffers, shard_ranges
from repro.serving import RetrievalEngine, export_index


@pytest.fixture(scope="module")
def setup():
    config = SyntheticConfig(
        n_users=60, n_items=110, n_categories=4, n_price_levels=4,
        interactions_per_user=9, seed=13,
    )
    dataset = generate(config)[0]
    model = pup_full(dataset, global_dim=10, category_dim=6, rng=np.random.default_rng(4))
    model.eval()
    index = export_index(model, dataset)
    return dataset, model, index


class TestWorkerInvariance:
    def test_rankings_bit_identical_across_worker_counts(self, setup):
        dataset, model, _ = setup
        users = sorted(dataset.split_positive_sets("test"))
        reference = topk_rankings(model, dataset, users, k=20)
        for workers in (1, 2, 3, 4):
            got = topk_rankings(model, dataset, users, k=20, workers=workers)
            assert got.keys() == reference.keys()
            for user in reference:
                np.testing.assert_array_equal(got[user], reference[user])

    def test_metrics_bit_identical_across_workers(self, setup):
        dataset, model, _ = setup
        reference = evaluate(model, dataset, ks=(5, 20))
        for workers in (4, 2):
            assert evaluate(model, dataset, ks=(5, 20), workers=workers) == reference

    def test_chunk_size_does_not_change_results(self, setup):
        dataset, model, _ = setup
        users = sorted(dataset.split_positive_sets("test"))
        reference = topk_rankings(model, dataset, users, k=10)
        for chunk in (1, 7, 1000):
            got = topk_rankings(model, dataset, users, k=10, user_chunk=chunk, workers=2)
            for user in reference:
                np.testing.assert_array_equal(got[user], reference[user])


class TestSharding:
    def test_shard_ranges_cover_catalog(self):
        for n_items, n_shards in ((10, 3), (7, 7), (5, 9), (100, 1)):
            ranges = shard_ranges(n_items, n_shards)
            assert ranges[0][0] == 0 and ranges[-1][1] == n_items
            for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                assert stop == start
            assert all(stop > start for start, stop in ranges)

    def test_sharded_equals_unsharded(self, setup, item_block):
        dataset, model, _ = setup
        users = sorted(dataset.split_positive_sets("test"))
        reference = topk_rankings(model, dataset, users, k=25)
        for width in (55, 37, 14, 1):  # 2, 3, 8 and 110 shards of 110 items
            item_block(width)
            got = topk_rankings(model, dataset, users, k=25)
            for user in reference:
                np.testing.assert_array_equal(got[user], reference[user])

    def test_sharded_metrics_and_workers_compose(self, setup, item_block):
        dataset, model, _ = setup
        reference = evaluate(model, dataset, ks=(10,))
        item_block(22)  # 5 shards
        assert evaluate(model, dataset, ks=(10,), workers=3) == reference
        item_block(28)  # 4 shards
        assert evaluate(model, dataset, ks=(10,), workers=2) == reference

    def test_tie_breaking_across_shard_boundaries(self, item_block):
        # Integer-valued factors make exact score ties that straddle shard
        # boundaries; selection must break them by ascending item id exactly
        # as a stable argsort of the full row would.
        values = np.array([3.0, 1.0, 3.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 0.0])
        branch = ScoreBranch(user=np.ones((4, 1)), item=values[:, None])
        for width in (10, 5, 4, 2, 1):  # 1, 2, 3, 5 and 10 shards
            item_block(width)
            sharded = ShardedIndex([branch])
            ids, scores = sharded.topk_chunk(np.arange(4), 6, with_scores=True)
            expected = np.argsort(-values, kind="stable")[:6]
            for row in range(4):
                np.testing.assert_array_equal(ids[row], expected)
                np.testing.assert_array_equal(scores[row], values[expected])

    def test_tied_scores_with_exclusions_across_shards(self, item_block):
        values = np.tile(np.array([2.0, 1.0]), 8)  # 16 items, ties everywhere
        branch = ScoreBranch(user=np.ones((2, 1)), item=values[:, None])
        indptr = np.array([0, 3, 4])
        indices = np.array([0, 2, 14, 1])  # user 0 excludes three tied items
        reference = ShardedIndex([branch]).topk_chunk(
            np.arange(2), 5, exclude_csr=(indptr, indices)
        )[0]
        for width in (8, 4, 3, 2):  # 2, 4, 6 and 8 shards
            item_block(width)
            got = ShardedIndex([branch]).topk_chunk(
                np.arange(2), 5, exclude_csr=(indptr, indices)
            )[0]
            np.testing.assert_array_equal(got, reference)


class TestFloat32Memory:
    def test_float32_branches_never_score_in_float64(self, setup, monkeypatch, item_block):
        dataset, model, _ = setup
        from repro.nn import precision
        from repro.runtime import sharded as sharded_module

        with precision("float32"):
            model32 = pup_full(
                dataset, global_dim=10, category_dim=6, rng=np.random.default_rng(4)
            )
        model32.eval()
        assert model32.export_embeddings()[0].user.dtype == np.float32

        seen = []
        original = sharded_module.score_branches

        def spy(*args, **kwargs):
            result = original(*args, **kwargs)
            seen.append(result.dtype)
            return result

        monkeypatch.setattr(sharded_module, "score_branches", spy)
        users = sorted(dataset.split_positive_sets("test"))
        rankings = topk_rankings(model32, dataset, users, k=15)
        assert seen and all(dtype == np.float32 for dtype in seen)
        # and the float32 rankings match the float64 model's (same weights,
        # lossless comparison order)
        item_block(37)  # 3 shards
        reference = topk_rankings(model32, dataset, users, k=15)
        for user in rankings:
            np.testing.assert_array_equal(rankings[user], reference[user])

    def test_recommend_all_scores_stay_in_index_dtype(self, setup):
        dataset, _, _ = setup
        from repro.nn import precision

        with precision("float32"):
            model32 = pup_full(
                dataset, global_dim=10, category_dim=6, rng=np.random.default_rng(4)
            )
        model32.eval()
        index32 = export_index(model32, dataset)
        recommendations = recommend_all(index32, k=5)
        assert recommendations.scores.dtype == np.float32


class TestCandidatePools:
    def test_candidate_items_match_reference_kernel_under_workers(self, setup, item_block):
        dataset, model, _ = setup
        rng = np.random.default_rng(9)
        users = sorted(dataset.split_positive_sets("test"))[:20]
        candidates = {
            # every user present; explicit None = unrestricted pool
            user: (
                np.sort(rng.permutation(dataset.n_items)[: int(rng.integers(3, 30))])
                if position % 2 == 0
                else None
            )
            for position, user in enumerate(users)
        }
        reference = topk_rankings(model, dataset, users, k=8, candidate_items=candidates)
        # reference semantics per user, via masked_topk on the live scores
        branches = model.export_embeddings()
        from repro.scoring import score_branches

        scores = score_branches(branches, np.asarray(users))
        train_pos = dataset.train_positive_sets()
        for row, user in enumerate(users):
            exclude = sorted(train_pos.get(user, ()))
            expected = masked_topk(
                np.asarray(scores[row], dtype=np.float64),
                8,
                exclude_items=exclude or None,
                candidate_items=candidates.get(user),
            )
            np.testing.assert_array_equal(reference[user], expected)
        got = topk_rankings(
            model, dataset, users, k=8, candidate_items=candidates, workers=3
        )
        item_block(28)  # 4 shards
        sharded = topk_rankings(model, dataset, users, k=8, candidate_items=candidates)
        for got in (got, sharded):
            for user in users:
                np.testing.assert_array_equal(got[user], reference[user])

    def test_missing_user_in_candidate_dict_is_a_key_error(self, setup):
        dataset, model, _ = setup
        users = sorted(dataset.split_positive_sets("test"))[:5]
        incomplete = {users[0]: np.array([1, 2, 3])}  # other users absent
        with pytest.raises(KeyError, match="missing evaluated users"):
            topk_rankings(model, dataset, users, k=5, candidate_items=incomplete)


    def test_shared_mask_and_per_row_pools_do_not_combine(self):
        branch = ScoreBranch(user=np.ones((1, 1)), item=np.arange(5.0)[:, None])
        with pytest.raises(ValueError, match="mutually exclusive"):
            ShardedIndex([branch]).topk_chunk(
                [0], 3, candidate_items=[np.array([2])], candidate_mask=np.ones(5, dtype=bool)
            )


class TestRestrictedPoolScores:
    def test_padding_past_candidate_pool_scores_neg_inf(self):
        # k exceeds a restricted pool: padding ids must carry -inf (masked)
        # scores, matching the unrestricted paths' contract, never the raw
        # model score of an out-of-pool item.
        branch = ScoreBranch(user=np.ones((1, 1)), item=np.arange(5.0)[:, None])
        with BatchRuntime([branch], RuntimeConfig()) as runtime:
            _, ids, scores = runtime.rank(
                [0], 3, with_scores=True, candidate_items={0: np.array([2])}
            )
        assert ids[0][0] == 2 and scores[0][0] == 2.0
        assert np.all(np.isneginf(scores[0][1:]))


class TestBatchHeight:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_branches", [1, 3])
    def test_a_lone_row_scores_as_it_does_inside_a_batch(self, dtype, n_branches):
        # Every product runs at ``gemm_rows`` height, so the open-rows pass
        # and the restricted pools must both score a lone row the way a
        # taller batch does.
        rng = np.random.default_rng(n_branches)
        branches = [
            ScoreBranch(
                user=rng.normal(size=(16, 64)).astype(dtype),
                item=rng.normal(size=(3000, 64)).astype(dtype),
                weight=1.0 / (position + 1),
            )
            for position in range(n_branches)
        ]
        sharded = ShardedIndex(branches)
        users = np.arange(16)
        pools = [np.sort(rng.choice(3000, size=200, replace=False)) for _ in users]
        batch_ids, batch_scores = sharded.topk_chunk(users, 50, with_scores=True)
        pool_ids, pool_scores = sharded.topk_chunk(
            users, 50, candidate_items=pools, with_scores=True
        )
        for user in (0, 7, 15):
            ids, scores = sharded.topk_chunk([user], 50, with_scores=True)
            np.testing.assert_array_equal(ids[0], batch_ids[user])
            np.testing.assert_array_equal(scores[0], batch_scores[user])
            ids, scores = sharded.topk_chunk(
                [user], 50, candidate_items=[pools[user]], with_scores=True
            )
            np.testing.assert_array_equal(ids[0], pool_ids[user])
            np.testing.assert_array_equal(scores[0], pool_scores[user])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_buffers_of_gemm_rows_height_are_scored_in_place(dtype):
    rng = np.random.default_rng(3)
    for width in (7, 77, 203):
        branches = [
            ScoreBranch(
                user=rng.normal(size=(64, d)).astype(dtype),
                item=rng.normal(size=(width, d)).astype(dtype),
                item_const=rng.normal(size=width).astype(dtype),
                weight=0.5,
            )
            for d in (9, 4)
        ]
        for height in range(1, 65):
            out, scratch = _Buffers().get(height, width, np.dtype(dtype))
            assert out.shape == (gemm_rows(height, width), gemm_cols(width))
            scores = score_branches(branches, np.arange(height), out=out, scratch=scratch)
            assert scores.shape == (height, width) and np.shares_memory(scores, out)


class TestScorerFallback:
    def test_non_factorizable_model_evaluates_serially(self, setup):
        dataset, model, _ = setup

        class OpaqueScorer(Recommender):
            name = "opaque"

            def __init__(self, dataset, inner):
                super().__init__(dataset)
                self._inner = inner

            def predict_scores(self, users):
                return self._inner.predict_scores(users)

        opaque = OpaqueScorer(dataset, model)
        users = sorted(dataset.split_positive_sets("test"))
        reference = topk_rankings(model, dataset, users, k=12)
        got = topk_rankings(opaque, dataset, users, k=12, workers=4)
        for user in reference:
            np.testing.assert_array_equal(got[user], reference[user])


class TestUserRange:
    """Out-of-range user ids are a ValueError at the runtime's front door —
    never numpy's repeat/index error, never the last user's row relabelled."""

    @pytest.mark.parametrize("exclude_train", [True, False])
    @pytest.mark.parametrize("bad", [[-1], [3, -1], "n_users"])
    def test_out_of_range_users_rejected(self, setup, bad, exclude_train):
        dataset, model, index = setup
        users = [index.n_users] if bad == "n_users" else bad
        with pytest.raises(ValueError, match=r"user id out of range \[0, 60\)"):
            recommend_all(index, k=5, users=users, exclude_train=exclude_train)
        with pytest.raises(ValueError, match=r"user id out of range \[0, 60\)"):
            topk_rankings(model, dataset, users, k=5, exclude_train=exclude_train)


class TestRecommendAll:
    def test_matches_retrieval_engine(self, setup, item_block):
        dataset, _, index = setup
        engine = RetrievalEngine(index)
        item_block(37)  # the export ranks in 3 shards, the engine in one
        recommendations = recommend_all(index, k=7, workers=2)
        results = engine.topk(recommendations.users, 7)
        for row in range(len(recommendations.users)):
            np.testing.assert_array_equal(results[row].items, recommendations.items[row])
            np.testing.assert_array_equal(
                np.asarray(results[row].scores, dtype=recommendations.scores.dtype),
                recommendations.scores[row],
            )

    def test_padding_past_candidate_pool_is_sentineled(self):
        # 6 items, user 0 has bought 4 of them: k=5 exceeds the unexcluded
        # pool, and the overflow must surface as -1/-inf padding, never as
        # already-bought item ids.
        from repro.serving.index import EmbeddingIndex

        branch = ScoreBranch(user=np.ones((2, 1)), item=np.arange(6.0)[:, None])
        index = EmbeddingIndex(
            branches=[branch],
            item_categories=np.zeros(6, dtype=np.int64),
            item_price_levels=np.zeros(6, dtype=np.int64),
            n_price_levels=1,
            n_categories=1,
            exclude_indptr=np.array([0, 4, 5]),
            exclude_indices=np.array([1, 2, 4, 5, 0]),
            item_popularity=np.ones(6),
        )
        recommendations = recommend_all(index, k=5)
        np.testing.assert_array_equal(recommendations.items[0], [3, 0, -1, -1, -1])
        assert np.all(np.isneginf(recommendations.scores[0, 2:]))
        # user 1 has a large enough pool: no sentinels
        np.testing.assert_array_equal(recommendations.items[1], [5, 4, 3, 2, 1])

    def test_default_population_is_warm_users(self, setup):
        dataset, _, index = setup
        recommendations = recommend_all(index, k=3)
        warm = np.flatnonzero(np.diff(index.exclude_indptr) > 0)
        np.testing.assert_array_equal(recommendations.users, warm)

    def test_round_trips_through_disk(self, setup, tmp_path):
        _, _, index = setup
        recommendations = recommend_all(index, k=4, users=[0, 5, 9])
        path = recommendations.save(str(tmp_path / "recs"))
        loaded = type(recommendations).load(path)
        np.testing.assert_array_equal(loaded.users, recommendations.users)
        np.testing.assert_array_equal(loaded.items, recommendations.items)
        np.testing.assert_array_equal(loaded.scores, recommendations.scores)
        assert loaded.model_name == index.model_name
        items, scores = loaded.for_user(5)
        np.testing.assert_array_equal(items, recommendations.items[1])
        with pytest.raises(KeyError):
            loaded.for_user(123456)

    def test_checkpoint_archives_are_rejected(self, setup, tmp_path):
        dataset, model, _ = setup
        from repro.runtime.engine import BulkRecommendations
        from repro.train.persistence import save_checkpoint

        path = save_checkpoint(model, str(tmp_path / "ckpt"))
        with pytest.raises(ValueError, match="not bulk recommendations"):
            BulkRecommendations.load(path)


class TestProfilerIntegration:
    def test_eval_phases_recorded(self, setup, item_block):
        dataset, model, _ = setup
        profiler = Profiler()
        item_block(37)  # 3 shards, so there is a merge to time
        evaluate(model, dataset, ks=(5,), profiler=profiler)
        for phase in ("score", "topk", "merge", "metrics"):
            assert profiler.seconds(phase) > 0, phase
        assert profiler.counter("evaluated_users") > 0
        assert "users_per_sec" in profiler.summary()

    def test_mmap_index_runtime_parity(self, setup, tmp_path, item_block):
        dataset, _, index = setup
        path = index.save(str(tmp_path / "index"))
        mapped = type(index).load(path, mmap=True)
        with BatchRuntime(index, RuntimeConfig(), exclude_csr=(index.exclude_indptr, index.exclude_indices)) as runtime:
            _, reference, _ = runtime.rank(np.arange(20), 9)
        item_block(55)  # 2 shards, scored off the mapped dir by two threads
        config = RuntimeConfig(workers=2)
        exclude = (mapped.exclude_indptr, mapped.exclude_indices)
        with BatchRuntime(mapped, config, exclude_csr=exclude) as runtime:
            _, ids, _ = runtime.rank(np.arange(20), 9)
        np.testing.assert_array_equal(ids, reference)


class TestThreadWorkers:
    @pytest.mark.parametrize("workers", [0, 2, 3])
    def test_a_chunk_error_reaches_the_caller_as_itself(self, setup, monkeypatch, workers):
        _, _, index = setup
        csr = (index.exclude_indptr, index.exclude_indices)
        users = np.arange(40)
        with BatchRuntime(index, RuntimeConfig(), exclude_csr=csr) as fresh:
            _, expected, _ = fresh.rank(users, 9)

        boom = RuntimeError("chunk failed")
        original = ShardedIndex.topk_chunk

        def flaky(self, chunk_users, k, **kwargs):
            if 21 in chunk_users:  # the third chunk of five
                raise boom
            return original(self, chunk_users, k, **kwargs)

        config = RuntimeConfig(workers=workers, user_chunk=8)
        with BatchRuntime(index, config, exclude_csr=csr) as runtime:
            monkeypatch.setattr(ShardedIndex, "topk_chunk", flaky)
            with pytest.raises(RuntimeError) as raised:
                runtime.rank(users, 9)
            assert raised.value is boom
            monkeypatch.undo()
            # the runtime survives the failed call and ranks correctly
            _, ids, _ = runtime.rank(users, 9)
        np.testing.assert_array_equal(ids, expected)

    def test_results_stay_in_user_order_when_chunks_finish_out_of_order(
        self, setup, monkeypatch
    ):
        import time

        _, _, index = setup
        users = np.arange(60)[::-1]  # descending ids: order is the caller's
        with BatchRuntime(index, RuntimeConfig(user_chunk=5)) as serial:
            _, expected, _ = serial.rank(users, 6)
        original = ShardedIndex.topk_chunk

        def slow_early_chunks(self, chunk_users, k, **kwargs):
            # earlier chunks (higher ids here) sleep longest, so later
            # chunks finish first on the other threads
            time.sleep(0.0004 * int(chunk_users[0]))
            return original(self, chunk_users, k, **kwargs)

        monkeypatch.setattr(ShardedIndex, "topk_chunk", slow_early_chunks)
        with BatchRuntime(index, RuntimeConfig(workers=4, user_chunk=5)) as runtime:
            ordered, ids, _ = runtime.rank(users, 6)
        np.testing.assert_array_equal(ordered, users)
        np.testing.assert_array_equal(ids, expected)

    def test_more_threads_than_cores_lose_no_chunk_and_share_no_buffer(self, setup):
        # A short switch interval forces thread switches inside the chunk
        # kernel and the tracer's unlocked appends: a shared score buffer
        # would corrupt rankings, a lost append would drop a span.
        import sys

        from repro.obs.trace import Tracer

        _, _, index = setup
        users = np.tile(np.arange(60), 5)
        with BatchRuntime(index, RuntimeConfig(user_chunk=3)) as serial:
            _, expected_ids, expected_scores = serial.rank(users, 8, with_scores=True)
        tracer = Tracer()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with BatchRuntime(index, RuntimeConfig(workers=8, user_chunk=3)) as runtime:
                for _ in range(3):
                    _, ids, scores = runtime.rank(users, 8, with_scores=True, tracer=tracer)
                    np.testing.assert_array_equal(ids, expected_ids)
                    np.testing.assert_array_equal(scores, expected_scores)
        finally:
            sys.setswitchinterval(interval)
        records = tracer.records()
        assert sum(r["name"] == "chunk.rank" for r in records) == 3 * 100
        assert len({r["span_id"] for r in records}) == len(records)

    def test_config_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="workers"):
            RuntimeConfig(workers=-1)
        with pytest.raises(ValueError, match="user_chunk"):
            RuntimeConfig(user_chunk=0)
