"""The ANN recall-vs-exact harness."""

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.eval import ann_recall_at_k, ann_recall_report
from repro.eval.ann import exact_rankings
from repro.serving import build_ivf, export_index


class TestAnnRecallAtK:
    def test_perfect_overlap(self):
        rankings = {0: np.array([3, 1, 2]), 1: np.array([5, 4, 0])}
        assert ann_recall_at_k(rankings, rankings, k=3) == 1.0

    def test_order_within_topk_does_not_matter(self):
        exact = {0: np.array([3, 1, 2])}
        approx = {0: np.array([2, 3, 1])}
        assert ann_recall_at_k(exact, approx, k=3) == 1.0

    def test_partial_overlap_averages_per_user(self):
        exact = {0: np.array([1, 2]), 1: np.array([3, 4])}
        approx = {0: np.array([1, 9]), 1: np.array([8, 9])}
        assert ann_recall_at_k(exact, approx, k=2) == pytest.approx(0.25)

    def test_sentinel_padding_ignored(self):
        exact = {0: np.array([1, 2, -1, -1])}
        approx = {0: np.array([2, 1, -1, -1])}
        assert ann_recall_at_k(exact, approx, k=4) == 1.0

    def test_empty_exact_list_counts_as_recalled(self):
        exact = {0: np.array([-1, -1])}
        approx = {0: np.array([5, 6])}
        assert ann_recall_at_k(exact, approx, k=2) == 1.0

    def test_missing_user_raises(self):
        with pytest.raises(KeyError, match="missing user"):
            ann_recall_at_k({0: np.array([1])}, {}, k=1)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be"):
            ann_recall_at_k({0: np.array([1])}, {0: np.array([1])}, k=0)


class TestReport:
    @pytest.fixture(scope="class")
    def setup(self):
        config = SyntheticConfig(
            n_users=50, n_items=150, n_categories=4, n_price_levels=4,
            interactions_per_user=7, seed=43,
        )
        dataset = generate(config)[0]
        model = pup_full(dataset, global_dim=10, category_dim=4, rng=np.random.default_rng(6))
        model.eval()
        index = export_index(model, dataset)
        return dataset, index

    def test_full_probe_arm_reports_perfect_recall(self, setup):
        _, index = setup
        ivf = build_ivf(index, n_lists=8, nprobe=8, seed=0)
        users = np.arange(30)
        report = ann_recall_report(index, ivf, users, k=10, scorers=("exact",))
        (arm,) = report["arms"].values()
        assert arm["recall_at_k"] == 1.0
        assert report["evaluated_users"] == 30

    def test_sweep_covers_every_requested_arm(self, setup):
        _, index = setup
        ivf = build_ivf(index, n_lists=8, nprobe=2, seed=0)
        report = ann_recall_report(
            index, ivf, np.arange(20), k=10,
            nprobes=(1, 8), scorers=("exact",),
        )
        assert set(report["arms"]) == {"nprobe1_exact", "nprobe8_exact"}
        assert report["arms"]["nprobe8_exact"]["recall_at_k"] == 1.0
        assert (
            report["arms"]["nprobe1_exact"]["recall_at_k"]
            <= report["arms"]["nprobe8_exact"]["recall_at_k"]
        )

    def test_each_arm_books_its_own_search(self, setup):
        """An arm's recall is exactly that of ``search`` at its own
        ``nprobe`` and fine scorer — no arm falls back to another."""
        _, index = setup
        ivf = build_ivf(index, n_lists=8, nprobe=2, seed=0, pq=True)
        users = np.arange(25)
        reference = exact_rankings(index, users, 10)
        csr = (index.exclude_indptr, index.exclude_indices)
        expected = {}
        for scorer in ivf.scorers:
            ids, _ = ivf.search(users, 10, nprobe=3, scorer=scorer, exclude_csr=csr)
            recall = ann_recall_at_k(
                reference, {int(user): ids[row] for row, user in enumerate(users)}, 10
            )
            expected[f"nprobe3_{scorer}"] = {
                "nprobe": 3, "scorer": scorer, "recall_at_k": recall
            }
        report = ann_recall_report(index, ivf, users, k=10, scorers=ivf.scorers, nprobes=(3,))
        assert report["arms"] == expected

    def test_a_type_error_inside_an_ivf_search_is_not_swallowed(self, setup):
        """The report used to catch ``TypeError`` to tell index kinds apart,
        retry without ``nprobe`` / ``scorer``, and book the default
        operating point's recall under the requested arm's label."""
        _, index = setup

        class BrokenIVF:
            n_lists, nprobe = 8, 2
            calls = 0

            def search(self, users, k, **kwargs):
                self.calls += 1
                raise TypeError("unsupported operand inside the fine stage")

        broken = BrokenIVF()
        with pytest.raises(TypeError, match="inside the fine stage"):
            ann_recall_report(index, broken, np.arange(10), k=10)
        assert broken.calls == 1
