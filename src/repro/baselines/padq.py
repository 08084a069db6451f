"""PaDQ [Chen et al. 2014] — collective matrix factorization with price.

PaDQ treats price *generatively*: shared latent factors must simultaneously
reconstruct the user-item matrix, a user-price matrix (how often each user
bought at each price level) and an item-price matrix (each item's own
level), following CMF [Singh & Gordon 2008].

For comparability with the other methods the user-item part is trained with
BPR (the paper trains all baselines with BPR); the two price-reconstruction
terms enter through :meth:`auxiliary_loss`.  The paper's finding — that
"price should be an input rather than a target" — shows up as this model
underperforming plain BPR-MF.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.base import Recommender, ScoreBranch
from ..experiments.registry import register_model
from ..data.dataset import Dataset
from ..nn import Embedding, Tensor


@register_model("padq")
class PaDQ(Recommender):
    """CMF over user-item / user-price / item-price matrices."""

    name = "PaDQ"

    def __init__(
        self,
        dataset: Dataset,
        dim: int = 64,
        rng: Optional[np.random.Generator] = None,
        embedding_std: float = 0.1,
        price_weight: float = 0.5,
    ) -> None:
        super().__init__(dataset)
        if price_weight < 0:
            raise ValueError(f"price_weight must be >= 0, got {price_weight}")
        rng = rng or np.random.default_rng()
        self.price_weight = price_weight
        self.user_embedding = Embedding(self.n_users, dim, rng=rng, std=embedding_std)
        self.item_embedding = Embedding(self.n_items, dim, rng=rng, std=embedding_std)
        self.price_embedding = Embedding(self.n_price_levels, dim, rng=rng, std=embedding_std)

        # Target matrices for the generative reconstruction terms, in the
        # parameters' dtype so a float32 loss stays float32.
        dtype = self.user_embedding.weight.dtype
        self._user_price = self._build_user_price_matrix(dataset).astype(dtype)
        self._item_price = np.zeros((self.n_items, self.n_price_levels), dtype=dtype)
        self._item_price[np.arange(self.n_items), self.item_price_levels] = 1.0

    @staticmethod
    def _build_user_price_matrix(dataset: Dataset) -> np.ndarray:
        """Row-normalized count of train purchases per (user, price level)."""
        matrix = np.zeros((dataset.n_users, dataset.n_price_levels))
        levels = dataset.item_price_levels[dataset.train.items]
        np.add.at(matrix, (dataset.train.users, levels), 1.0)
        row_sums = matrix.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0] = 1.0
        return matrix / row_sums

    # ------------------------------------------------------------------
    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        users, items = self._check_pair_shapes(users, items)
        return (self.user_embedding(users) * self.item_embedding(items)).sum(axis=1)

    def bpr_forward(
        self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray
    ) -> Tuple[Tensor, Tensor, List[Tensor]]:
        user_emb = self.user_embedding(users)
        pos_emb = self.item_embedding(pos_items)
        neg_emb = self.item_embedding(neg_items)
        pos = (user_emb * pos_emb).sum(axis=1)
        neg = (user_emb * neg_emb).sum(axis=1)
        return pos, neg, [user_emb, pos_emb, neg_emb]

    def auxiliary_loss(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """Squared-error reconstruction of the user-price and item-price rows.

        Only the batch's user rows and the batch's positive-item rows are
        reconstructed per step, matching stochastic CMF training.
        """
        users = np.unique(np.asarray(users, dtype=np.int64))
        items = np.unique(np.asarray(items, dtype=np.int64))
        price_table = self.price_embedding.all()

        user_pred = self.user_embedding(users).matmul(price_table.T)
        user_diff = user_pred - Tensor(self._user_price[users])
        user_loss = (user_diff * user_diff).mean()

        item_pred = self.item_embedding(items).matmul(price_table.T)
        item_diff = item_pred - Tensor(self._item_price[items])
        item_loss = (item_diff * item_diff).mean()

        return (user_loss + item_loss) * self.price_weight

    def predict_scores(self, users: np.ndarray) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        return self.user_embedding.weight.data[users] @ self.item_embedding.weight.data.T

    def export_embeddings(self) -> List[ScoreBranch]:
        return [
            ScoreBranch(
                user=self.user_embedding.weight.data,
                item=self.item_embedding.weight.data,
            )
        ]
