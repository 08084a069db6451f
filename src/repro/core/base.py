"""The common interface every recommender in this repo implements.

Models expose two surfaces:

* :meth:`Recommender.bpr_forward` — differentiable scores for a BPR batch of
  (user, positive item, negative item) triples plus the embedding tensors to
  L2-regularize.  GCN models propagate once per batch and gather both the
  positive and the negative rows from the same propagated table.
* :meth:`Recommender.predict_scores` — a dense ``(batch_users, n_items)``
  score matrix used by the full-ranking evaluator.  No gradients.

``trainable`` lets heuristic models (ItemPop) skip the training loop.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..data.dataset import Dataset
from ..nn import Module, Tensor
from ..scoring import ScoreBranch, score_branches


class Recommender(Module):
    """Abstract base for all models (PUP, its variants, and the baselines)."""

    #: human-readable name used in benchmark tables
    name: str = "recommender"
    #: whether the trainer should run gradient descent on this model
    trainable: bool = True

    #: how this instance can be rebuilt (registry name + hparams + seed);
    #: set by :func:`repro.experiments.build_model`, None for hand-built models
    model_spec = None

    def __init__(self, dataset: Dataset) -> None:
        super().__init__()
        self.n_users = dataset.n_users
        self.n_items = dataset.n_items
        self.n_categories = dataset.n_categories
        self.n_price_levels = dataset.n_price_levels
        self.item_categories = dataset.item_categories.copy()
        self.item_price_levels = dataset.item_price_levels.copy()

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, dataset: Dataset, config: Dict) -> "Recommender":
        """Rebuild a model from its serialized construction config.

        ``config`` is the :meth:`~repro.experiments.ModelSpec.to_dict` form
        (``{"name": ..., "hparams": {...}, "seed": ...}``); construction goes
        through the model registry, so any registered model can be restored
        from a checkpoint's or experiment's metadata.  Called on a subclass,
        the config must resolve to that subclass.
        """
        from ..experiments.registry import ModelSpec  # deferred: avoids a cycle

        model = ModelSpec.from_dict(config).build(dataset)
        if cls is not Recommender and not isinstance(model, cls):
            raise TypeError(
                f"config names model {config.get('name')!r} which built a "
                f"{type(model).__name__}, not a {cls.__name__}"
            )
        return model

    # ------------------------------------------------------------------
    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """Differentiable scores for explicit (user, item) pairs."""
        raise NotImplementedError

    def bpr_forward(
        self, users: np.ndarray, pos_items: np.ndarray, neg_items: np.ndarray
    ) -> Tuple[Tensor, Tensor, List[Tensor]]:
        """Default BPR batch: two score_pairs calls, no extra regularizers.

        GCN subclasses override this to share one propagation pass between
        the positive and negative scores.
        """
        return self.score_pairs(users, pos_items), self.score_pairs(users, neg_items), []

    def predict_scores(self, users: np.ndarray) -> np.ndarray:
        """Dense score matrix ``(len(users), n_items)`` for ranking (no grad).

        The default implementation freezes the score function through
        :meth:`export_embeddings` and evaluates it with the shared
        :func:`score_branches` kernel — the same code path serving uses —
        so any model with a factorizable score gets live evaluation for
        free, guaranteed consistent with its exported index.  Models with
        non-factorizable scorers (DeepFM) override this directly.
        """
        return score_branches(self.export_embeddings(), users)

    def export_embeddings(self) -> List[ScoreBranch]:
        """Frozen factorization of the score function for offline serving.

        Runs any graph propagation once and returns :class:`ScoreBranch`
        terms whose sum reproduces :meth:`predict_scores` exactly.  Models
        whose score is not factorizable over (user, item) — e.g. an MLP over
        joint features — raise ``NotImplementedError``; the serving exporter
        turns that into a friendly error.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support embedding export; its score "
            "function is not factorizable into user/item branches"
        )

    def auxiliary_loss(self, users: np.ndarray, items: np.ndarray) -> "Tensor | None":
        """Optional extra training objective added to the BPR loss.

        PaDQ uses this for its collective-matrix-factorization reconstruction
        terms (rebuilding the batch users' price rows and the batch items'
        price rows); other models return None.
        """
        return None

    # ------------------------------------------------------------------
    def _check_pair_shapes(self, users: np.ndarray, items: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.shape != items.shape:
            raise ValueError(f"users/items shape mismatch: {users.shape} vs {items.shape}")
        return users, items
