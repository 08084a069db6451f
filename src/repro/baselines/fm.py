"""FM — Factorization Machines [Rendle 2010] with price/category features.

As in the paper's experiments, each training example is the feature set
{user id, item id, item category, item price level}; the prediction is the
first-order terms plus the sum of pairwise inner products of the feature
embeddings (2-way FM).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.base import Recommender, ScoreBranch
from ..experiments.registry import register_model
from ..core.decoder import pairwise_interaction, pairwise_interaction_numpy
from ..data.dataset import Dataset
from ..nn import Embedding, Parameter, Tensor, init


@register_model("fm")
class FM(Recommender):
    """2-way FM over {user, item, category, price} one-hot features."""

    name = "FM"

    def __init__(
        self,
        dataset: Dataset,
        dim: int = 64,
        rng: Optional[np.random.Generator] = None,
        embedding_std: float = 0.1,
        use_price: bool = True,
        use_category: bool = True,
    ) -> None:
        super().__init__(dataset)
        rng = rng or np.random.default_rng()
        self.use_price = use_price
        self.use_category = use_category
        self.user_embedding = Embedding(self.n_users, dim, rng=rng, std=embedding_std)
        self.item_embedding = Embedding(self.n_items, dim, rng=rng, std=embedding_std)
        self.category_embedding = (
            Embedding(self.n_categories, dim, rng=rng, std=embedding_std) if use_category else None
        )
        self.price_embedding = (
            Embedding(self.n_price_levels, dim, rng=rng, std=embedding_std) if use_price else None
        )
        # First-order weights.
        self.user_bias = Parameter(init.zeros((self.n_users,)), name="user_bias")
        self.item_bias = Parameter(init.zeros((self.n_items,)), name="item_bias")
        self.category_bias = Parameter(init.zeros((self.n_categories,)), name="category_bias")
        self.price_bias = Parameter(init.zeros((self.n_price_levels,)), name="price_bias")

    # ------------------------------------------------------------------
    def _gather_features(self, users: np.ndarray, items: np.ndarray) -> List[Tensor]:
        features = [self.user_embedding(users), self.item_embedding(items)]
        if self.use_category:
            features.append(self.category_embedding(self.item_categories[items]))
        if self.use_price:
            features.append(self.price_embedding(self.item_price_levels[items]))
        return features

    def _first_order(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        linear = self.user_bias.gather_rows(users) + self.item_bias.gather_rows(items)
        if self.use_category:
            linear = linear + self.category_bias.gather_rows(self.item_categories[items])
        if self.use_price:
            linear = linear + self.price_bias.gather_rows(self.item_price_levels[items])
        return linear

    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        users, items = self._check_pair_shapes(users, items)
        features = self._gather_features(users, items)
        return self._first_order(users, items) + pairwise_interaction(features)

    def bpr_forward(
        self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray
    ) -> Tuple[Tensor, Tensor, List[Tensor]]:
        pos_features = self._gather_features(users, pos_items)
        neg_features = self._gather_features(users, neg_items)
        pos = self._first_order(users, pos_items) + pairwise_interaction(pos_features)
        neg = self._first_order(users, neg_items) + pairwise_interaction(neg_features)
        return pos, neg, pos_features + neg_features

    # ------------------------------------------------------------------
    def _item_side_numpy(self) -> Tuple[np.ndarray, np.ndarray]:
        """Item-side embedding sum and constant per item (vectorized eval)."""
        item_emb = self.item_embedding.weight.data
        parts = [item_emb]
        const = self.item_bias.data.copy()
        if self.use_category:
            cat = self.category_embedding.weight.data[self.item_categories]
            parts.append(cat)
            const = const + self.category_bias.data[self.item_categories]
        if self.use_price:
            price = self.price_embedding.weight.data[self.item_price_levels]
            parts.append(price)
            const = const + self.price_bias.data[self.item_price_levels]
        if len(parts) > 1:
            const = const + pairwise_interaction_numpy(parts)
        return np.add.reduce(parts), const

    def predict_scores(self, users: np.ndarray) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        item_side, const = self._item_side_numpy()
        user_emb = self.user_embedding.weight.data[users]
        scores = user_emb @ item_side.T
        scores += const[None, :]
        scores += self.user_bias.data[users][:, None]
        return scores

    def export_embeddings(self) -> List[ScoreBranch]:
        item_side, const = self._item_side_numpy()
        return [
            ScoreBranch(
                user=self.user_embedding.weight.data,
                item=item_side,
                item_const=const,
                user_const=self.user_bias.data,
            )
        ]
