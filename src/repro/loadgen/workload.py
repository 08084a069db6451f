"""Workload synthesis: who asks, what they ask for, and when.

Three independent axes, each deterministic under a seed:

* **Who** — warm users drawn zipfian (rank :math:`r` with probability
  :math:`\\propto r^{-s}`, ``s = ZIPF_S``), so a small hot set dominates
  exactly like production recommendation traffic; a configurable fraction
  of requests come from *cold* user ids outside the index's id space,
  exercising the price-profile fallback path the same way the paper's
  cold-start split exercises evaluation.

* **What** — every request asks for the top ``REQUEST_K`` items, with no
  filter and no price profile.

* **When** — :func:`arrival_times` spaces arrivals ``1 / rate`` apart
  (:math:`t_{i+1} = t_i + 1/\\lambda`).  Deterministic (not Poisson) on
  purpose — load runs are comparable across commits, which is what a CI
  gate needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

#: cold ids start this far above the warm id space — far enough
#: that no plausible index growth turns a cold id warm between runs.
COLD_ID_OFFSET = 10_000_000


@dataclass(frozen=True)
class LoadRequest:
    """One request the generator will fire at the gateway (unfiltered, no
    price profile, the default tenant)."""

    user: int
    k: int
    cold: bool


#: skew exponent of the warm-user draw: ~1 is classic web-traffic skew,
#: where the hottest user is requested orders of magnitude more often than
#: the median
ZIPF_S = 1.1
#: cold requests draw their ids from this many users past the warm space
N_COLD_USERS = 100
#: the ``k`` of every generated request
REQUEST_K = 10


@dataclass
class WorkloadConfig:
    """Shape of the request population (not its timing — see ArrivalSchedule).

    ``cold_fraction`` of requests use ids outside ``[0, n_users)`` (from
    ``n_users + COLD_ID_OFFSET`` on) and therefore hit the fallback path.
    """

    n_requests: int = 1000
    n_users: int = 1000
    cold_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {self.n_requests}")
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if not 0.0 <= self.cold_fraction <= 1.0:
            raise ValueError(
                f"cold_fraction must be in [0, 1], got {self.cold_fraction}"
            )


def zipf_users(
    n_requests: int, n_users: int, s: float, rng: np.random.Generator
) -> np.ndarray:
    """Zipfian user draw by inverse-CDF over the finite rank distribution.

    ``numpy``'s ``rng.zipf`` samples the unbounded Zipf law and needs
    ``s > 1``; real user populations are finite and traffic skews are often
    quoted with ``s <= 1``, so we build the exact CDF over ``n_users``
    ranks instead.  Rank 0 is the hottest user; because ranks map to user
    ids directly the hot set is stable across runs, which makes cache-hit
    behaviour reproducible too.
    """
    ranks = np.arange(1, n_users + 1, dtype=np.float64)
    weights = ranks ** -float(s)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    draws = rng.random(n_requests)
    return np.searchsorted(cdf, draws, side="left").astype(np.int64)


def build_workload(config: WorkloadConfig, seed: int = 0) -> List[LoadRequest]:
    """Materialize the full request list (same seed → identical list)."""
    rng = np.random.default_rng(seed)
    users = zipf_users(config.n_requests, config.n_users, ZIPF_S, rng)
    cold = rng.random(config.n_requests) < config.cold_fraction
    cold_base = config.n_users + COLD_ID_OFFSET
    cold_ids = cold_base + rng.integers(0, N_COLD_USERS, config.n_requests)
    return [
        LoadRequest(
            user=int(cold_ids[i]) if is_cold else int(users[i]), k=REQUEST_K, cold=is_cold
        )
        for i, is_cold in enumerate(cold.tolist())
    ]


@dataclass
class ArrivalSchedule:
    """When requests arrive (open loop only; closed loop ignores timing):
    a constant ``rate`` req/s."""

    rate: float = 1000.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")


def arrival_times(schedule: ArrivalSchedule, n_requests: int) -> np.ndarray:
    """Deterministic arrival offsets (seconds from start) for ``n_requests``.

    A running sum of ``1 / rate`` gaps (``add.accumulate`` adds in order, so
    offset ``i`` is ``i`` gaps summed one by one, not ``i / rate``).  No
    randomness — open-loop runs are replayable.
    """
    times = np.full(n_requests, 1.0 / schedule.rate)
    times[:1] = 0.0
    return np.cumsum(times, out=times)
