"""DeepFM [Guo et al. 2017] — FM plus a deep tower on shared embeddings.

The FM component is identical to :class:`~repro.baselines.fm.FM`; the deep
component is an MLP over the concatenated feature embeddings.  Both share
the same embedding tables (the defining trait of DeepFM) and their outputs
are summed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.base import Recommender
from ..experiments.registry import register_model
from ..core.decoder import pairwise_interaction
from ..data.dataset import Dataset
from ..nn import MLP, Embedding, Parameter, Tensor, concat, init


@register_model("deepfm")
class DeepFM(Recommender):
    """FM + MLP over {user, item, category, price} embeddings."""

    name = "DeepFM"

    def __init__(
        self,
        dataset: Dataset,
        dim: int = 64,
        hidden: Sequence[int] = (64, 32),
        rng: Optional[np.random.Generator] = None,
        embedding_std: float = 0.1,
        dropout: float = 0.0,
    ) -> None:
        super().__init__(dataset)
        rng = rng or np.random.default_rng()
        self.dim = dim
        self.user_embedding = Embedding(self.n_users, dim, rng=rng, std=embedding_std)
        self.item_embedding = Embedding(self.n_items, dim, rng=rng, std=embedding_std)
        self.category_embedding = Embedding(self.n_categories, dim, rng=rng, std=embedding_std)
        self.price_embedding = Embedding(self.n_price_levels, dim, rng=rng, std=embedding_std)
        self.user_bias = Parameter(init.zeros((self.n_users,)), name="user_bias")
        self.item_bias = Parameter(init.zeros((self.n_items,)), name="item_bias")
        self.mlp = MLP([4 * dim, *hidden, 1], rng=rng, dropout=dropout)

    # ------------------------------------------------------------------
    def _gather_features(self, users: np.ndarray, items: np.ndarray) -> List[Tensor]:
        return [
            self.user_embedding(users),
            self.item_embedding(items),
            self.category_embedding(self.item_categories[items]),
            self.price_embedding(self.item_price_levels[items]),
        ]

    def _score_from_features(
        self, users: np.ndarray, items: np.ndarray, features: List[Tensor]
    ) -> Tensor:
        fm_term = (
            self.user_bias.gather_rows(users)
            + self.item_bias.gather_rows(items)
            + pairwise_interaction(features)
        )
        deep_in = concat(features, axis=1)
        deep_term = self.mlp(deep_in).reshape(len(users))
        return fm_term + deep_term

    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        users, items = self._check_pair_shapes(users, items)
        return self._score_from_features(users, items, self._gather_features(users, items))

    def bpr_forward(
        self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray
    ) -> Tuple[Tensor, Tensor, List[Tensor]]:
        pos_features = self._gather_features(users, pos_items)
        neg_features = self._gather_features(users, neg_items)
        pos = self._score_from_features(users, pos_items, pos_features)
        neg = self._score_from_features(users, neg_items, neg_features)
        return pos, neg, pos_features + neg_features

    # ------------------------------------------------------------------
    def predict_scores(self, users: np.ndarray, item_chunk: int = 128) -> np.ndarray:
        """Chunked evaluation: the MLP term is not factorizable over items."""
        users = np.asarray(users, dtype=np.int64)
        self.eval()
        n_users = len(users)
        scores = np.zeros((n_users, self.n_items), dtype=self.user_bias.dtype)
        all_items = np.arange(self.n_items)
        for start in range(0, self.n_items, item_chunk):
            chunk = all_items[start : start + item_chunk]
            grid_users = np.repeat(users, len(chunk))
            grid_items = np.tile(chunk, n_users)
            chunk_scores = self.score_pairs(grid_users, grid_items).data
            scores[:, start : start + len(chunk)] = chunk_scores.reshape(n_users, len(chunk))
        return scores
