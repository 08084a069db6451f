"""Input synthesis: everything here is a pure function of the seed.

The program under test sees only what these functions return.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.base import ScoreBranch
from repro.lifecycle import Event, simulate_events
from repro.serving.filters import PriceBandFilter
from repro.serving.index import EmbeddingIndex

N_PRICE_LEVELS = 5
#: cold-start ids sit far above any id a refresh round could allocate
COLD_ID_BASE = 10_000_000
#: request-stream parts that are not measured slices (slices count up from 0)
PART_WARMUP, PART_OVERHEAD = 1_000_000, 1_000_001


def clustered_index(
    n_users: int, n_items: int, seed: int,
    dim: int = 56, side_dim: int = 8, n_clusters: int = 64,
) -> EmbeddingIndex:
    """A clustered two-branch float32 catalog with prices and train histories.

    The ``bench_ann``/``bench_lifecycle`` generator, copied so the benchmark
    depends on nothing outside its own directory and ``src/``.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, dim))
    item_main = (
        centers[rng.integers(n_clusters, size=n_items)]
        + 0.35 * rng.normal(size=(n_items, dim))
    ).astype(np.float32)
    user_main = (
        centers[rng.integers(n_clusters, size=n_users)]
        + 0.5 * rng.normal(size=(n_users, dim))
    ).astype(np.float32)
    item_side = (0.3 * rng.normal(size=(n_items, side_dim))).astype(np.float32)
    user_side = (0.3 * rng.normal(size=(n_users, side_dim))).astype(np.float32)
    item_const = (0.1 * rng.normal(size=n_items)).astype(np.float32)
    branches = [
        ScoreBranch(user=user_main, item=item_main),
        ScoreBranch(user=user_side, item=item_side, item_const=item_const),
    ]
    counts = rng.integers(3, 15, size=n_users)
    indptr = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(
        [np.sort(rng.choice(n_items, count, replace=False)) for count in counts]
    )
    raw_prices = np.round(1.0 + 59.0 * rng.random(n_items), 4)
    edges = np.quantile(raw_prices, np.linspace(0, 1, N_PRICE_LEVELS + 1)[1:-1])
    levels = np.searchsorted(edges, raw_prices)
    return EmbeddingIndex(
        branches,
        item_categories=np.zeros(n_items, dtype=np.int64),
        item_price_levels=levels.astype(np.int64),
        n_price_levels=N_PRICE_LEVELS,
        n_categories=1,
        exclude_indptr=indptr,
        exclude_indices=indices,
        item_popularity=np.ones(n_items),
        item_raw_prices=raw_prices,
        model_name="e2e_clustered",
    )


class Request(NamedTuple):
    """One request; hashable, so it is also the key its answer is remembered by."""

    user: int
    k: int
    band: Optional[Tuple[int, int]] = None  # inclusive price-level band
    profile: Optional[Tuple[float, ...]] = None  # cold-start price profile


#: the five price bands a filtered request may carry (inclusive level ranges)
PRICE_BANDS = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 2))
_BAND_FILTERS = {band: (PriceBandFilter(*band),) for band in PRICE_BANDS}


def filters_of(request: Request) -> tuple:
    return () if request.band is None else _BAND_FILTERS[request.band]


def cold_profile(rng: np.random.Generator) -> Tuple[float, ...]:
    weights = rng.dirichlet(np.ones(N_PRICE_LEVELS))
    return tuple(float(w) for w in weights)


def scan_requests(n_users: int, count: int, seed: int, part: int) -> List[Request]:
    """Requests whose users never repeat inside the cache window.

    Users arrive as seeded permutations of the whole population; 70 % ask
    for k = 10 and 30 % for k = 50, a quarter carry one of five price
    bands, and 2 % are cold-start ids with a price profile.
    """
    rng = np.random.default_rng([seed, 11, part])
    users: List[int] = []
    while len(users) < count:
        users.extend(rng.permutation(n_users).tolist())
    ks = np.where(rng.random(count) < 0.7, 10, 50).tolist()
    banded = rng.random(count) < 0.25
    band_ids = rng.integers(len(PRICE_BANDS), size=count).tolist()
    cold = rng.random(count) < 0.02
    requests = []
    for i in range(count):
        band = PRICE_BANDS[band_ids[i]] if banded[i] else None
        if cold[i]:
            requests.append(
                Request(COLD_ID_BASE + i, ks[i], band, cold_profile(rng))
            )
        else:
            requests.append(Request(users[i], ks[i], band))
    return requests


def hot_keys(n_users: int, n_warm: int, n_cold: int, seed: int) -> List[Request]:
    """The hot set: ``n_warm`` warm users and ``n_cold`` cold-start ids, k = 10."""
    rng = np.random.default_rng([seed, 12])
    warm = rng.choice(n_users, size=n_warm, replace=False).tolist()
    keys = [Request(int(user), 10) for user in warm]
    keys += [Request(COLD_ID_BASE + i, 10, None, cold_profile(rng)) for i in range(n_cold)]
    return keys


def hot_requests(keys: List[Request], count: int, seed: int, part: int) -> List[Request]:
    """Zipf(1.1) traffic over the hot keys (rank = position in ``keys``)."""
    rng = np.random.default_rng([seed, 13, part])
    weights = 1.0 / np.arange(1, len(keys) + 1) ** 1.1
    picks = rng.choice(len(keys), size=count, p=weights / weights.sum())
    return [keys[i] for i in picks.tolist()]


def refresh_events(
    n_users: int, n_items: int, count: int, seed: int, start_seq: int, basket: int = 3
) -> List[Event]:
    """One round of catalog churn: 5 % new users, 5 % new items, 10 % reprices.

    ``simulate_events`` plus a first basket: every new user arrives with
    ``basket`` interactions in the same round.  Without it a new user's
    folded-in factors are all zero until some later round happens to draw
    them, and the promotion gate — which samples such users — sits at its
    0.95 recall floor and rejects about one round in ten.
    """
    events = simulate_events(n_users, n_items, count, seed=seed, start_seq=start_seq)
    rng = np.random.default_rng([seed, 14, start_seq])
    seq = start_seq + len(events)
    for event in list(events):
        if event.kind == "add_user":
            for item in rng.choice(n_items, size=basket, replace=False).tolist():
                events.append(Event(seq=seq, kind="interaction", user=event.user, item=item))
                seq += 1
    return events
