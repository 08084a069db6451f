"""Incremental fold-in: journal events → a new frozen index, no retrain.

The streaming lifecycle cannot afford a full training run per catalog
update, and it does not need one: the branch factors of the *existing*
catalog are a frozen basis, and a new user (or item) is a ridge
least-squares solve against that basis — the classic fold-in construction,
applied to PUP's multi-branch score layout.

For the multi-branch score ``s(u, i) = Σ_b w_b (u_b·v_b[i] + c_b[i] +
d_b[u])`` define the *combined* spaces

* item side: ``x_i = concat_b(v_b[i])`` (dimension ``D = Σ_b d_b``),
* user side: ``ũ = concat_b(w_b · u_b)``,

so that ``ũ·x_i`` reproduces every user-dependent factor term exactly.
Folding in a **user** solves ``(XᵀX + λI) ũ = Xᵀ ỹ`` where the rows of
``X`` are the combined vectors of the user's interacted items plus a
seeded sample of negatives, ``y`` is 1/0, and the weighted item constants
``Σ_b w_b c_b[i]`` are subtracted from the targets (they are part of the
score the solve must not re-explain).  The per-branch factors are then
``u_b = ũ_b / w_b``.  Folding in an **item** is the mirror image over
combined user rows and solves for ``x_i`` directly.  Both solves are a
few-hundred-row normal-equation problem per entity — microseconds against
the seconds a retrain costs — and deterministic given the seed (negatives
are drawn from a per-entity ``SeedSequence``, so results do not depend on
batch composition or event order).

Everything else an :class:`~repro.serving.index.EmbeddingIndex` carries is
updated in the same pass: the exclusion CSR gains the new interactions,
popularity accumulates, the catalog columns extend with new items, and
re-priced items get their price level re-quantized against the existing
catalog's level geometry (nearest existing price's level — deterministic,
and exactly what the price-band gates probe after a flash sale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.base import ScoreBranch
from ..serving.index import EmbeddingIndex
from .journal import Event


class FoldInError(ValueError):
    """An event stream is inconsistent with the index it is folded into."""


@dataclass(frozen=True)
class FoldInConfig:
    """Knobs of the least-squares fold-in.

    ``ridge`` is the Tikhonov λ (keeps sparse-history solves bounded);
    ``negatives_per_positive`` sizes the sampled negative set; ``seed``
    drives every negative draw through per-entity seed streams;
    ``refresh_users`` re-solves existing users that gained interactions
    (their old factors came from training — the refreshed ones fold the
    new evidence in against the same frozen item basis).
    """

    ridge: float = 1e-2
    negatives_per_positive: int = 4
    seed: int = 0
    refresh_users: bool = True


@dataclass
class FoldInStats:
    new_users: int = 0
    new_items: int = 0
    interactions: int = 0
    reprices: int = 0
    refreshed_users: int = 0
    last_seq: int = -1


def _combined_item_rows(
    branches: Sequence[ScoreBranch], new_item_rows: Dict[int, np.ndarray], rows: np.ndarray
) -> np.ndarray:
    """``concat_b(v_b[rows])`` in float64 — no const column (handled in
    targets).  Ids past the frozen catalog read the folded ``new_item_rows``;
    only the rows one solve needs are ever converted."""
    n_items = branches[0].item.shape[0]
    old = rows < n_items
    out = np.empty((len(rows), sum(b.item.shape[1] for b in branches)))
    offset = 0
    for b, branch in enumerate(branches):
        cols = slice(offset, offset + branch.item.shape[1])
        out[old, cols] = branch.item[rows[old]]
        out[~old, cols] = new_item_rows[b][rows[~old] - n_items]
        offset = cols.stop
    return out


def _combined_users(branches: Sequence[ScoreBranch]) -> np.ndarray:
    """``concat_b(w_b u_b)`` in float64."""
    return np.hstack(
        [b.weight * np.asarray(b.user, dtype=np.float64) for b in branches]
    )


def _weighted_item_const(branches: Sequence[ScoreBranch], n_items: int) -> np.ndarray:
    const = np.zeros(n_items)
    for b in branches:
        if b.item_const is not None:
            const[: len(b.item_const)] += b.weight * np.asarray(
                b.item_const, dtype=np.float64
            )
    return const


def _ridge_solve(X: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    """``argmin ||Xw - y||² + ridge·||w||²`` via the normal equations."""
    d = X.shape[1]
    gram = X.T @ X
    gram[np.diag_indices(d)] += ridge
    return np.linalg.solve(gram, X.T @ y)


def _sample_negatives(
    positives: np.ndarray, n_total: int, count: int, entropy: Tuple[int, ...]
) -> np.ndarray:
    """Seeded uniform negatives outside ``positives`` (may return fewer)."""
    pool = n_total - len(positives)
    count = min(count, pool)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence(list(entropy)))
    mask = np.ones(n_total, dtype=bool)
    mask[positives] = False
    candidates = np.flatnonzero(mask)
    return np.sort(rng.choice(candidates, size=count, replace=False))


def _split_user_vector(
    combined: np.ndarray, branches: Sequence[ScoreBranch]
) -> List[np.ndarray]:
    """Undo the user-side weighting: per-branch ``u_b = ũ_b / w_b``."""
    out: List[np.ndarray] = []
    offset = 0
    for b in branches:
        d = b.user.shape[1]
        part = combined[offset : offset + d]
        # A zero-weight branch contributes nothing to any score; its
        # folded factor is arbitrary, so keep it at zero.
        out.append(part / b.weight if abs(b.weight) > 1e-12 else np.zeros(d))
        offset += d
    return out


def _split_item_vector(
    combined: np.ndarray, branches: Sequence[ScoreBranch]
) -> List[np.ndarray]:
    out: List[np.ndarray] = []
    offset = 0
    for b in branches:
        d = b.item.shape[1]
        out.append(combined[offset : offset + d])
        offset += d
    return out


def _nearest_price_levels(
    new_prices: np.ndarray, sorted_prices: np.ndarray, sorted_levels: np.ndarray
) -> np.ndarray:
    """Level of each of ``new_prices`` against a price table sorted once.

    ``sorted_prices`` ascending (stable order), ``sorted_levels`` the levels
    in the same order; the rule is :func:`requantize_price`'s.
    """
    pos = np.searchsorted(sorted_prices, new_prices)
    last = len(sorted_prices) - 1
    left, right = np.clip(pos - 1, 0, last), np.clip(pos, 0, last)
    cheaper = (new_prices - sorted_prices[left]) <= (sorted_prices[right] - new_prices)
    return sorted_levels[np.where(cheaper, left, right)]


def requantize_price(
    new_price: float, raw_prices: np.ndarray, price_levels: np.ndarray
) -> int:
    """Price level of ``new_price`` under the existing catalog's geometry.

    The catalog's level boundaries are implicit in its data, so the
    deterministic assignment is *nearest existing price wins*: the new
    price inherits the level of the catalog item whose raw price is
    closest (ties toward the cheaper item).  An item crossing a band
    boundary in a flash sale therefore lands in exactly the level its new
    price would have been quantized to originally.
    """
    order = np.argsort(raw_prices, kind="stable")
    new_prices = np.array([new_price], dtype=np.float64)
    return int(_nearest_price_levels(new_prices, raw_prices[order], price_levels[order])[0])


def fold_in(
    index: EmbeddingIndex,
    events: Sequence[Event],
    config: Optional[FoldInConfig] = None,
) -> Tuple[EmbeddingIndex, FoldInStats]:
    """Apply journaled events to a frozen index; returns a **new** index.

    The input index is never mutated (hot-swap safety: the serving index
    and the candidate are distinct objects).  Event validation is strict —
    ``add_user``/``add_item`` ids must extend the id space contiguously,
    and interactions/reprices must reference ids that exist *after* the
    adds in the stream — so a build can never silently mis-wire an id.
    Deterministic: same index + same events + same config ⇒ bit-identical
    output index.
    """
    config = config or FoldInConfig()
    stats = FoldInStats()

    n_users, n_items = index.n_users, index.n_items
    new_user_ids: List[int] = []
    new_items: List[Tuple[int, int, float]] = []  # (id, category, price)
    interactions: List[Tuple[int, int]] = []
    reprices: Dict[int, float] = {}

    next_user, next_item = n_users, n_items
    for event in events:
        if event.kind == "add_user":
            if event.user != next_user:
                raise FoldInError(
                    f"add_user id {event.user} is not the next user id {next_user} "
                    f"(event seq {event.seq})"
                )
            new_user_ids.append(event.user)
            next_user += 1
        elif event.kind == "add_item":
            if event.item != next_item:
                raise FoldInError(
                    f"add_item id {event.item} is not the next item id {next_item} "
                    f"(event seq {event.seq})"
                )
            if event.price is None:
                raise FoldInError(f"add_item (seq {event.seq}) carries no price")
            new_items.append((event.item, max(0, event.category), float(event.price)))
            next_item += 1
        elif event.kind == "interaction":
            if not (0 <= event.user < next_user) or not (0 <= event.item < next_item):
                raise FoldInError(
                    f"interaction (seq {event.seq}) references unknown "
                    f"user {event.user} / item {event.item}"
                )
            interactions.append((event.user, event.item))
        elif event.kind == "reprice":
            if not (0 <= event.item < next_item):
                raise FoldInError(
                    f"reprice (seq {event.seq}) references unknown item {event.item}"
                )
            if event.price is None:
                raise FoldInError(f"reprice (seq {event.seq}) carries no price")
            reprices[event.item] = float(event.price)
        stats.last_seq = event.seq

    stats.new_users = len(new_user_ids)
    stats.new_items = len(new_items)
    stats.interactions = len(interactions)
    stats.reprices = len(reprices)

    total_users = n_users + len(new_user_ids)
    total_items = n_items + len(new_items)

    # ------------------------------------------------------------------
    # Catalog columns: extend, then apply reprices (level re-quantized
    # against the *pre-update* catalog geometry).
    # ------------------------------------------------------------------
    categories = np.concatenate(
        [index.item_categories, np.array([c for _, c, _ in new_items], dtype=np.int64)]
    )
    if index.item_raw_prices is not None:
        base_prices = index.item_raw_prices
    else:
        # Price-less index: synthesize neutral prices so new-item levels
        # still quantize deterministically.
        base_prices = np.zeros(n_items, dtype=np.float64)
    # One sort of the pre-update table serves every new and repriced item.
    order = np.argsort(base_prices, kind="stable")
    sorted_prices, sorted_levels = base_prices[order], index.item_price_levels[order]
    new_prices = np.array([p for _, _, p in new_items], dtype=np.float64)
    raw_prices = np.concatenate([base_prices, new_prices])
    price_levels = np.concatenate(
        [index.item_price_levels, _nearest_price_levels(new_prices, sorted_prices, sorted_levels)]
    )
    repriced = np.fromiter(reprices, dtype=np.int64, count=len(reprices))
    prices = np.fromiter(reprices.values(), dtype=np.float64, count=len(reprices))
    price_levels[repriced] = _nearest_price_levels(prices, sorted_prices, sorted_levels)
    raw_prices[repriced] = prices

    n_categories = max(index.n_categories, int(categories.max()) + 1 if len(categories) else 1)

    # ------------------------------------------------------------------
    # Exclusion CSR + popularity: merge the new interactions in.
    # ------------------------------------------------------------------
    per_user_new: Dict[int, Set[int]] = {}
    for user, item in interactions:
        per_user_new.setdefault(user, set()).add(item)

    indptr = np.zeros(total_users + 1, dtype=np.int64)
    chunks: List[np.ndarray] = []
    for user in range(total_users):
        old = (
            index.exclude_indices[
                index.exclude_indptr[user] : index.exclude_indptr[user + 1]
            ]
            if user < n_users
            else np.empty(0, dtype=np.int64)
        )
        extra = per_user_new.get(user)
        if extra:
            merged = np.union1d(old, np.fromiter(extra, dtype=np.int64, count=len(extra)))
        else:
            merged = old
        chunks.append(merged)
        indptr[user + 1] = indptr[user] + len(merged)
    indices = (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    ).astype(np.int64)

    popularity = np.zeros(total_items, dtype=np.float64)
    popularity[:n_items] = index.item_popularity
    for _user, item in interactions:
        popularity[item] += 1.0

    # ------------------------------------------------------------------
    # Factor solves.  Items first (their interacting users are mostly
    # trained, warm rows), then users (who may reference the fresh item
    # rows).  All solves read the frozen originals + already-folded rows.
    # ------------------------------------------------------------------
    branches = index.branches
    item_dtype = branches[0].item.dtype
    user_dtype = branches[0].user.dtype

    new_item_rows = {
        b: np.zeros((len(new_items), branch.item.shape[1]), dtype=np.float64)
        for b, branch in enumerate(branches)
    }
    # Combined user rows over the *existing* users (new users are zero at
    # item-solve time and are excluded from item evidence).
    users_by_item: Dict[int, Set[int]] = {}
    for user, item in interactions:
        if item >= n_items:
            users_by_item.setdefault(item, set()).add(user)
    if users_by_item:
        combined_user = _combined_users(branches)
        user_const = np.zeros(n_users)
        for b in branches:
            if b.user_const is not None:
                user_const += b.weight * np.asarray(b.user_const, dtype=np.float64)
        for item, raw_users in sorted(users_by_item.items()):
            pos = np.array(sorted(u for u in raw_users if u < n_users), dtype=np.int64)
            if len(pos) == 0:
                continue  # only brand-new users interacted: no basis yet
            neg = _sample_negatives(
                pos,
                n_users,
                config.negatives_per_positive * len(pos),
                (config.seed, 1, item),
            )
            rows = np.concatenate([pos, neg])
            X = combined_user[rows]
            y = np.zeros(len(rows))
            y[: len(pos)] = 1.0
            y -= user_const[rows]
            solved = _ridge_solve(X, y, config.ridge)
            for b, part in enumerate(_split_item_vector(solved, branches)):
                new_item_rows[b][item - n_items] = part

    item_const_full = _weighted_item_const(branches, total_items)

    # Users to (re)solve: every new user, plus existing users with new
    # interactions when refresh_users is on.
    solve_users = set(new_user_ids)
    if config.refresh_users:
        solve_users.update(u for u in per_user_new if u < n_users)
    stats.refreshed_users = len([u for u in solve_users if u < n_users])

    new_user_rows = {
        b: np.zeros((len(new_user_ids), branch.user.shape[1]), dtype=np.float64)
        for b, branch in enumerate(branches)
    }
    refreshed_rows: Dict[int, List[np.ndarray]] = {}
    for user in sorted(solve_users):
        pos = indices[indptr[user] : indptr[user + 1]]
        if len(pos) == 0:
            continue  # nothing to fold; keep zeros / training factors
        neg = _sample_negatives(
            pos,
            total_items,
            config.negatives_per_positive * len(pos),
            (config.seed, 0, user),
        )
        rows = np.concatenate([pos, neg])
        X = _combined_item_rows(branches, new_item_rows, rows)
        y = np.zeros(len(rows))
        y[: len(pos)] = 1.0
        y -= item_const_full[rows]
        solved = _ridge_solve(X, y, config.ridge)
        parts = _split_user_vector(solved, branches)
        if user >= n_users:
            for b, part in enumerate(parts):
                new_user_rows[b][user - n_users] = part
        else:
            refreshed_rows[user] = parts

    # ------------------------------------------------------------------
    # Assemble the new branches (old rows bit-identical unless refreshed).
    # ------------------------------------------------------------------
    new_branches: List[ScoreBranch] = []
    for b, branch in enumerate(branches):
        user = np.asarray(branch.user).copy()
        if refreshed_rows:
            for uid, parts in refreshed_rows.items():
                user[uid] = np.asarray(parts[b], dtype=user.dtype)
        if len(new_user_ids):
            user = np.vstack([user, new_user_rows[b].astype(user_dtype)])
        # vstack / concatenate already copy: the catalog is copied once.
        item = np.asarray(branch.item)
        if len(new_items):
            item = np.vstack([item, new_item_rows[b].astype(item_dtype)])
        else:
            item = item.copy()
        item_const = user_const_b = None
        if branch.item_const is not None:
            const = np.asarray(branch.item_const)
            item_const = np.concatenate([const, np.zeros(len(new_items), dtype=const.dtype)])
        if branch.user_const is not None:
            const = np.asarray(branch.user_const)
            user_const_b = np.concatenate([const, np.zeros(len(new_user_ids), dtype=const.dtype)])
        new_branches.append(
            ScoreBranch(
                user=user,
                item=item,
                item_const=item_const,
                user_const=user_const_b,
                weight=branch.weight,
            )
        )

    extra = dict(index.extra)
    lifecycle_extra = dict(extra.get("lifecycle") or {})
    lifecycle_extra.update(
        {
            "folded_seq": stats.last_seq,
            "fold_generation": int(lifecycle_extra.get("fold_generation", 0)) + 1,
        }
    )
    extra["lifecycle"] = lifecycle_extra

    new_index = EmbeddingIndex(
        branches=new_branches,
        item_categories=categories,
        item_price_levels=price_levels,
        n_price_levels=index.n_price_levels,
        n_categories=n_categories,
        exclude_indptr=indptr,
        exclude_indices=indices,
        item_popularity=popularity,
        item_raw_prices=raw_prices if index.item_raw_prices is not None else None,
        model_name=index.model_name,
        extra=extra,
    )
    return new_index, stats
