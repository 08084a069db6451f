"""The blocked generator: same datasets as the dense one, without users x items."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.data import generate, make_amazon_like, make_beibei_like, make_yelp_like
from repro.data import synthetic

MAKERS = {"yelp": make_yelp_like, "beibei": make_beibei_like, "amazon": make_amazon_like}

# sha256 over users/items/timestamps of train, validation, test, then the
# catalog's raw_prices/categories/price_levels, then truth.user_wtp — recorded
# from the dense generator at commit 08a22ff.  Scale 6 (3 600 x 5 400, ~1 s a
# case) is the only size here that takes more than one block.
PINNED = {
    ("yelp", 0, 0.25): "b35234a101b4989d9d1dc18217de5d43920e4308b4ba16fc27a493359946c6bb",
    ("yelp", 3, 0.25): "294aca7358c44dc00eaeade1cd9f6ceaa2ebdbe549c7b9b27ed66daca21ec609",
    ("yelp", 0, 1): "2f8ac694b33aa1dc8afb696c5f5450bc1938c278366f084157996fcd79d3aeb6",
    ("yelp", 3, 1): "b32ef5fb1cf62d28815c05c3ff933a4cde8e46e071f5cf6cd7ffc948e64d9a65",
    ("beibei", 0, 0.25): "85d62fa1f9e2d5b070533475ac20d50f1c68f73822a0fd6228d5250ac37a1021",
    ("beibei", 3, 0.25): "889ebc9d75785327e8eb3656d4cbfa6db6cc6165a82af3364ceadd554ace95d2",
    ("beibei", 0, 1): "ff6e2a9704c5f9a199beded857ab48c0d70c8b4779752d22ea67e065dcf71efb",
    ("beibei", 3, 1): "87762d38a6fddaa592126d37279376c8c4ed257464f96cd16364cb1276276128",
    ("amazon", 0, 0.25): "e5b931657ccbeba5de8c08e4b03711629bec665e00f79d4e1a017ed8ddd07a2b",
    ("amazon", 3, 0.25): "1e5c014addcc67155be78517e4759a9c36f514af27abf11136abe409073a9100",
    ("amazon", 0, 1): "e6af2363f186190993b71ffd1cc70abff7bd3e182f4d3fff8fae679ffaabdde1",
    ("amazon", 3, 1): "258604811a63e71ff9757eff0ca4b9e8661bbe3208694d65d9a4d23318e0f8a9",
    ("yelp", 0, 6): "3160c9bd770a4f12d8a9116d249a4d55b8afedb53015903df0422b61ab097250",
    ("yelp", 3, 6): "b2175257a42abdc8dcadfa5e34292063a0fd7bf60e7632493bb3494801978b96",
}


def dataset_digest(dataset, truth) -> str:
    digest = hashlib.sha256()
    for split in (dataset.train, dataset.validation, dataset.test):
        for array in (split.users, split.items, split.timestamps):
            digest.update(np.ascontiguousarray(array).tobytes())
    catalog = dataset.catalog
    for array in (catalog.raw_prices, catalog.categories, catalog.price_levels, truth.user_wtp):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "name, seed, scale", list(PINNED), ids=["-".join(map(str, case)) for case in PINNED]
)
def test_datasets_match_the_dense_generator(name, seed, scale):
    assert dataset_digest(*MAKERS[name](seed=seed, scale=scale)) == PINNED[name, seed, scale]


def test_a_small_block_budget_gives_the_same_dataset(monkeypatch):
    """Many ragged blocks (7 rows over 150 users) against one block."""
    one_block = dataset_digest(*make_yelp_like(seed=5, scale=0.25))
    monkeypatch.setattr(synthetic, "_BLOCK_BYTES", 7 * 8 * 225)
    assert dataset_digest(*make_yelp_like(seed=5, scale=0.25)) == one_block


class TestGeneratorMemory:
    """A work counter, not a timing: the tracemalloc peak is exact per (code, config)."""

    MB = 1 << 20

    @staticmethod
    def traced_peak(config) -> int:
        tracemalloc.start()
        try:
            generate(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def yelp_scale_6(self):
        """The config ``make_yelp_like(scale=6)`` hands to ``generate``."""
        captured = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(synthetic, "generate", captured.append)
            make_yelp_like(scale=6)
        (config,) = captured
        assert (config.n_users, config.n_items) == (3600, 5400)
        return config

    @pytest.fixture(scope="class")
    def base_peak(self, yelp_scale_6):
        return self.traced_peak(yelp_scale_6)

    def test_peak_is_a_few_blocks_not_users_by_items(self, base_peak):
        # The dense generator peaked at ~447 MB here (three 3 600 x 5 400 float64s).
        assert base_peak <= 64 * self.MB

    def test_peak_does_not_scale_with_users(self, yelp_scale_6, base_peak):
        doubled = dataclasses.replace(yelp_scale_6, n_users=2 * yelp_scale_6.n_users)
        assert self.traced_peak(doubled) < base_peak + 10 * self.MB
