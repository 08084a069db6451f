"""Offline export: trained model (or checkpoint) → :class:`EmbeddingIndex`.

This is the one-time expensive step of the serving pipeline: graph
propagation runs once here, after which the index answers queries with
dense matmuls only.  Works for every model whose score factorizes into
:class:`~repro.scoring.ScoreBranch` terms (PUP and all its variants,
BPR-MF, LightGCN, NGCF, GC-MC, FM, PaDQ, ItemPop); models with
non-factorizable scorers (DeepFM's MLP tower) raise
:class:`ExportError` with an explanation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from .index import EmbeddingIndex

if TYPE_CHECKING:
    from ..core.base import Recommender
    from ..data.dataset import Dataset


class ExportError(RuntimeError):
    """The model cannot be frozen into an embedding index."""


def export_index(
    model: Recommender,
    dataset: Dataset,
    extra: Optional[Dict] = None,
) -> EmbeddingIndex:
    """Freeze ``model`` into a serving index over ``dataset``'s catalog."""
    was_training = model.training
    model.eval()
    try:
        # frozen_copy: exported branches may alias live weights (models like
        # BPR-MF hand out their embedding tables); the frozen index must not.
        branches = [branch.frozen_copy() for branch in model.export_embeddings()]
    except NotImplementedError as error:
        raise ExportError(str(error)) from error
    finally:
        if was_training:
            model.train()

    if branches[0].user.shape[0] != dataset.n_users or branches[0].item.shape[0] != dataset.n_items:
        raise ExportError(
            f"model factors cover {branches[0].user.shape[0]} users / "
            f"{branches[0].item.shape[0]} items but dataset has "
            f"{dataset.n_users}/{dataset.n_items}"
        )

    indptr, indices = dataset.train_exclusion_csr()
    return EmbeddingIndex(
        branches=branches,
        item_categories=dataset.item_categories,
        item_price_levels=dataset.item_price_levels,
        n_price_levels=dataset.n_price_levels,
        n_categories=dataset.n_categories,
        exclude_indptr=indptr,
        exclude_indices=indices,
        item_popularity=dataset.item_popularity(),
        item_raw_prices=dataset.catalog.raw_prices,
        model_name=model.name,
        extra=extra,
    )


def export_index_from_checkpoint(
    checkpoint_path: str,
    model: Recommender,
    dataset: Dataset,
    strict: bool = True,
    extra: Optional[Dict] = None,
) -> EmbeddingIndex:
    """Load a saved checkpoint into ``model``, then export it.

    ``model`` must be constructed with the architecture the checkpoint was
    saved from (checkpoints store weights, not hyperparameters).  The
    checkpoint's metadata is carried into the index's ``extra`` under
    ``"checkpoint"``.
    """
    from ..train.persistence import load_checkpoint  # deferred: serving stays off the training stack

    metadata = load_checkpoint(model, checkpoint_path, strict=strict)
    merged = dict(extra or {})
    merged.setdefault("checkpoint", {k: v for k, v in metadata.items() if k != "parameter_names"})
    return export_index(model, dataset, extra=merged)
