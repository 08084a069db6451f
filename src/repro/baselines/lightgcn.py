"""LightGCN [He et al. 2020] — a post-paper graph CF reference point.

Not one of the paper's baselines (it appeared the same year), but the
de-facto modern graph-CF baseline; included as an extension so downstream
users can compare PUP against the simplified propagation family.

LightGCN drops feature transforms and non-linearities entirely: embeddings
propagate over the symmetrically-normalized bipartite adjacency and the
final representation is the mean of the layer outputs (including layer 0).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.base import Recommender, ScoreBranch
from ..experiments.registry import register_model
from ..data.dataset import Dataset
from ..graph import csr
from ..nn import Embedding, Tensor


def _symmetric_normalized_bipartite(dataset: Dataset, dtype=None) -> csr.CSR:
    """``D^-1/2 (A) D^-1/2`` over the user-item bipartite graph (no self-loops,
    per the LightGCN formulation)."""
    return csr.normalized_adjacency(
        dataset.n_users + dataset.n_items,
        dataset.train.users,
        dataset.train.items + dataset.n_users,
        self_loops=False,
        symmetric=True,
        dtype=dtype,
    )


@register_model("lightgcn")
class LightGCN(Recommender):
    """K-layer LightGCN with mean layer combination."""

    name = "LightGCN"

    def __init__(
        self,
        dataset: Dataset,
        dim: int = 64,
        n_layers: int = 2,
        rng: Optional[np.random.Generator] = None,
        embedding_std: float = 0.1,
    ) -> None:
        super().__init__(dataset)
        if n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {n_layers}")
        rng = rng or np.random.default_rng()
        self.n_layers = n_layers
        self.embedding = Embedding(self.n_users + self.n_items, dim, rng=rng, std=embedding_std)
        self._adjacency = _symmetric_normalized_bipartite(
            dataset, dtype=self.embedding.weight.data.dtype
        )

    def _propagate(self) -> Tensor:
        layer = self.embedding.all()
        total = layer
        for _ in range(self.n_layers):
            # The symmetrically-normalized adjacency is its own transpose, so
            # the backward pass reuses the forward matrix.
            layer = layer.sparse_matmul(self._adjacency, transpose=self._adjacency)
            total = total + layer
        return total * (1.0 / (self.n_layers + 1))

    def _propagate_inference(self) -> np.ndarray:
        layer = self.embedding.weight.data
        total = layer.copy()
        for _ in range(self.n_layers):
            layer = self._adjacency @ layer
            total += layer
        return total / (self.n_layers + 1)

    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        users, items = self._check_pair_shapes(users, items)
        table = self._propagate()
        user_rows = table.gather_rows(users)
        item_rows = table.gather_rows(items + self.n_users)
        return (user_rows * item_rows).sum(axis=1)

    def bpr_forward(
        self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray
    ) -> Tuple[Tensor, Tensor, List[Tensor]]:
        table = self._propagate()
        user_rows = table.gather_rows(users)
        pos_rows = table.gather_rows(pos_items + self.n_users)
        neg_rows = table.gather_rows(neg_items + self.n_users)
        pos = (user_rows * pos_rows).sum(axis=1)
        neg = (user_rows * neg_rows).sum(axis=1)
        return pos, neg, [user_rows, pos_rows, neg_rows]

    # predict_scores inherited: frozen branches + the shared scoring kernel.
    def export_embeddings(self) -> List[ScoreBranch]:
        table = self._propagate_inference()
        return [ScoreBranch(user=table[: self.n_users], item=table[self.n_users :])]
