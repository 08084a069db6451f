"""Synthetic dataset generators standing in for Yelp / Beibei / Amazon.

The original paper evaluates on public datasets (Yelp2018, Beibei, Amazon
reviews) that cannot be downloaded in this offline environment.  These
generators produce datasets *calibrated to the published statistics* (scaled
down) whose behavioural model plants exactly the structure the paper's
method exploits:

* **interest**: users prefer a small set of categories (Dirichlet mixture)
  and items close to their latent taste;
* **global purchasing power**: each user has a budget percentile ``b_u``;
* **category-dependent price awareness**: each user's willingness-to-pay in
  category ``c`` is ``WTP_{u,c} = clip(b_u + delta_{u,c})`` where the spread
  of ``delta`` across categories is the *inconsistency* knob (Section II-A's
  CWTP-entropy analysis);
* purchase probability multiplies interest with a Gaussian price-match term
  centred on ``WTP_{u,c}`` — reproducing the "one price level per category"
  concentration visible in the paper's Figure 2 heatmaps.

Because the price-match term depends on (user, category, price) jointly and
data is sparse, models that share statistical strength through explicit price
and category representations (PUP) can generalize where pure user-item CF
cannot — the same mechanism the paper argues for on real data.

Ground truth (budgets, WTP tables) is returned alongside the dataset so tests
can verify the planted signal and analyses (Fig 1 / Fig 2) can be validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..arrays import sorted_unique
from .dataset import Dataset, InteractionTable, ItemCatalog
from .quantization import uniform_quantize
from .split import temporal_split

# Byte budget for one block of float64 purchase-utility rows in `generate`.
_BLOCK_BYTES = 1 << 20


@dataclass
class SyntheticGroundTruth:
    """The latent variables used to generate a synthetic dataset."""

    user_budget: np.ndarray  # (n_users,) global WTP percentile in [0, 1]
    user_wtp: np.ndarray  # (n_users, n_categories) per-category WTP percentile
    user_category_affinity: np.ndarray  # (n_users, n_categories) mixture weights
    item_price_percentile: np.ndarray  # (n_items,) price percentile within category


@dataclass
class SyntheticConfig:
    """Knobs for :func:`generate`.

    Defaults are laptop-scale; the named constructors below mirror each
    paper dataset's shape (category count, price levels, price distribution).
    """

    name: str = "synthetic"
    n_users: int = 400
    n_items: int = 300
    n_categories: int = 12
    n_price_levels: int = 10
    interactions_per_user: int = 30
    latent_dim: int = 8
    price_sensitivity: float = 3.0
    price_match_width: float = 0.12
    inconsistency: float = 0.25
    category_concentration: float = 0.3
    popularity_skew: float = 0.6
    price_distribution: str = "uniform"  # or "lognormal"
    item_turnover: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users < 2 or self.n_items < 2:
            raise ValueError("need at least 2 users and 2 items")
        if self.n_categories < 1 or self.n_price_levels < 1:
            raise ValueError("need at least 1 category and 1 price level")
        if self.interactions_per_user < 3:
            raise ValueError("interactions_per_user must be >= 3 for a 60/20/20 split")
        if self.price_distribution not in ("uniform", "lognormal"):
            raise ValueError(f"unknown price distribution {self.price_distribution!r}")
        if not 0.0 <= self.item_turnover < 1.0:
            raise ValueError(f"item_turnover must be in [0, 1), got {self.item_turnover}")


def generate(config: SyntheticConfig) -> tuple[Dataset, SyntheticGroundTruth]:
    """Generate a dataset + ground truth from ``config`` (deterministic in seed)."""
    rng = np.random.default_rng(config.seed)

    # --- items: categories, latent taste vectors, prices -----------------
    category_popularity = rng.dirichlet(np.full(config.n_categories, 2.0))
    item_categories = rng.choice(config.n_categories, size=config.n_items, p=category_popularity)
    # Ensure every category has at least one item so category nodes are connected.
    for category in range(config.n_categories):
        if not (item_categories == category).any():
            item_categories[rng.integers(config.n_items)] = category

    category_means = rng.normal(0.0, 1.0, size=(config.n_categories, config.latent_dim))
    item_latents = category_means[item_categories] + rng.normal(
        0.0, 0.5, size=(config.n_items, config.latent_dim)
    )

    raw_prices = _draw_prices(rng, item_categories, config)
    price_percentile = _percentile_within_category(raw_prices, item_categories)
    price_levels = uniform_quantize(raw_prices, item_categories, config.n_price_levels)

    # --- users: taste, category mixture, budget, per-category WTP --------
    user_latents = rng.normal(0.0, 1.0, size=(config.n_users, config.latent_dim))
    affinity = rng.dirichlet(
        np.full(config.n_categories, config.category_concentration), size=config.n_users
    )
    budget = rng.beta(2.0, 2.0, size=config.n_users)
    offsets = rng.normal(0.0, config.inconsistency, size=(config.n_users, config.n_categories))
    wtp = np.clip(budget[:, None] + offsets, 0.02, 0.98)

    # --- item base popularity (long tail) ---------------------------------
    popularity = rng.zipf(1.0 + config.popularity_skew, size=config.n_items).astype(np.float64)
    log_popularity = np.log(popularity)
    log_popularity = (log_popularity - log_popularity.mean()) / max(log_popularity.std(), 1e-9)

    # --- sample interactions ----------------------------------------------
    # Purchase probabilities are computed one block of users at a time, so
    # memory is O(block x items) whatever n_users is.  Only the draw itself
    # stays per user: ``rng.choice`` without replacement consumes a
    # data-dependent amount of the stream, so one call per user, in user
    # order, is what keeps datasets identical seed for seed.
    count = min(config.interactions_per_user, config.n_items - 1)
    category_interest = 3.0 * np.log(affinity + 1e-6)
    popularity_interest = 0.5 * log_popularity
    match_scale = 2.0 * config.price_match_width**2
    block_rows = max(1, _BLOCK_BYTES // (8 * config.n_items))
    # Every block is computed into the same two buffers.  Fresh blocks
    # would come from the malloc heap, and whether the per-user draws'
    # small arrays had split the holes the last ones left — which differs
    # from run to run — would decide whether the heap grows by a block.
    utility_rows = np.empty((min(block_rows, config.n_users), config.n_items))
    scratch_rows = np.empty_like(utility_rows)
    items_out = []
    for start in range(0, config.n_users, block_rows):
        block = slice(start, start + block_rows)
        rows = min(block_rows, config.n_users - start)
        utility, scratch = utility_rows[:rows], scratch_rows[:rows]
        # Interest: latent taste + category affinity + item popularity.
        np.matmul(user_latents[block], item_latents.T, out=utility)
        utility /= np.sqrt(config.latent_dim)
        # every category id is in range: "clip" only spares the whole-block
        # copy of `out` that the default "raise" mode buffers through
        utility += np.take(
            category_interest[block], item_categories, axis=1, out=scratch, mode="clip"
        )
        utility += popularity_interest
        # Gaussian price match centred on the user's WTP in the item's category.
        match = np.take(wtp[block], item_categories, axis=1, out=scratch, mode="clip")
        np.subtract(price_percentile, match, out=match)
        np.square(match, out=match)
        np.negative(match, out=match)
        match /= match_scale
        match *= config.price_sensitivity
        utility += match
        # Softmax over items, row by row.
        utility -= utility.max(axis=1, keepdims=True)
        probs = np.exp(utility, out=utility)
        probs /= probs.sum(axis=1, keepdims=True)
        for row in probs:
            items_out.append(rng.choice(config.n_items, size=count, replace=False, p=row))

    users_arr = np.repeat(np.arange(config.n_users), count)
    items_arr = np.concatenate(items_out)
    # Catalog turnover: items "release" over [0, item_turnover] and can only
    # be purchased afterwards.  With a temporal split this puts late-released
    # items mostly (or only) in validation/test — the cold-item regime where
    # explicit price/category representations must generalize, as on the real
    # platforms whose catalogs grow over time.  turnover=0 keeps a static
    # catalog (uniform timestamps).
    release = rng.random(config.n_items) * config.item_turnover
    item_release = release[items_arr]
    timestamps = item_release + (1.0 - item_release) * rng.random(len(users_arr))

    table = InteractionTable(users_arr, items_arr, timestamps)
    train, validation, test = temporal_split(table)

    catalog = ItemCatalog(
        raw_prices=raw_prices,
        categories=item_categories,
        price_levels=price_levels,
        n_categories=config.n_categories,
        n_price_levels=config.n_price_levels,
    )
    dataset = Dataset(
        name=config.name,
        n_users=config.n_users,
        n_items=config.n_items,
        catalog=catalog,
        train=train,
        validation=validation,
        test=test,
    )
    truth = SyntheticGroundTruth(
        user_budget=budget,
        user_wtp=wtp,
        user_category_affinity=affinity,
        item_price_percentile=price_percentile,
    )
    return dataset, truth


def _draw_prices(
    rng: np.random.Generator, item_categories: np.ndarray, config: SyntheticConfig
) -> np.ndarray:
    """Per-category price scales; uniform or heavy-tailed lognormal draws."""
    n_items = len(item_categories)
    scales = rng.uniform(10.0, 500.0, size=config.n_categories)
    base = scales[item_categories]
    if config.price_distribution == "uniform":
        return base * rng.uniform(0.2, 1.0, size=n_items)
    return base * rng.lognormal(mean=0.0, sigma=0.9, size=n_items)


def _percentile_within_category(prices: np.ndarray, categories: np.ndarray) -> np.ndarray:
    """Continuous price percentile within each category, in [0, 1)."""
    percentile = np.zeros(len(prices))
    for category in sorted_unique(categories):
        mask = categories == category
        values = prices[mask]
        order = np.argsort(np.argsort(values, kind="stable"), kind="stable")
        percentile[mask] = order / max(len(values), 1)
    return percentile


# ----------------------------------------------------------------------
# Named dataset constructors mirroring the paper's Table I (scaled down)
# ----------------------------------------------------------------------

def make_yelp_like(seed: int = 0, scale: float = 1.0) -> tuple[Dataset, SyntheticGroundTruth]:
    """Yelp2018-like: restaurants, 4 dollar-sign price levels, ~89 categories
    in the paper; scaled to 12 categories here.  Price is already categorical
    (1-4 dollar signs), so uniform price draws + 4 levels."""
    config = SyntheticConfig(
        name="yelp-like",
        n_users=int(600 * scale),
        n_items=int(900 * scale),
        n_categories=12,
        n_price_levels=4,
        interactions_per_user=18,
        price_distribution="uniform",
        price_sensitivity=4.0,
        inconsistency=0.22,
        item_turnover=0.75,
        seed=seed,
    )
    return generate(config)


def make_beibei_like(seed: int = 0, scale: float = 1.0) -> tuple[Dataset, SyntheticGroundTruth]:
    """Beibei-like: e-commerce, continuous prices quantized to 10 levels,
    110 categories in the paper scaled to 16, sparser than Yelp."""
    config = SyntheticConfig(
        name="beibei-like",
        n_users=int(700 * scale),
        n_items=int(1100 * scale),
        n_categories=16,
        n_price_levels=10,
        interactions_per_user=14,
        price_distribution="uniform",
        price_sensitivity=4.0,
        inconsistency=0.3,
        category_concentration=0.25,
        item_turnover=0.4,
        seed=seed + 1,
    )
    return generate(config)


def make_amazon_like(
    seed: int = 0, scale: float = 1.0, n_price_levels: int = 10
) -> tuple[Dataset, SyntheticGroundTruth]:
    """Amazon-reviews-like: 5 product categories, heavy-tailed (lognormal)
    raw prices — the regime where rank quantization beats uniform
    (Table IV) and price-level fineness matters (Fig 5)."""
    config = SyntheticConfig(
        name="amazon-like",
        n_users=int(600 * scale),
        n_items=int(1000 * scale),
        n_categories=5,
        n_price_levels=n_price_levels,
        interactions_per_user=14,
        price_distribution="lognormal",
        price_sensitivity=5.0,
        price_match_width=0.1,
        inconsistency=0.25,
        item_turnover=0.5,
        seed=seed + 2,
    )
    return generate(config)
