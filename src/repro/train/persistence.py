"""Model checkpoints: a model's named parameters as a :mod:`repro.archive`
directory of kind ``checkpoint``."""

from __future__ import annotations

from typing import Dict

from ..archive import (
    CHECKPOINT_KIND,
    KIND_KEY,
    check_header,
    read_archive_arrays,
    read_archive_metadata,
    write_archive,
)
from ..core.base import Recommender


def save_checkpoint(model: Recommender, path: str, extra: Dict | None = None) -> str:
    """Serialize ``model``'s parameters to the archive directory ``path``.

    Arrays are stored in their native dtype — a float32 model writes a
    float32 (half-size) checkpoint — and the header records the precision;
    ``load_checkpoint`` casts to whatever precision the target model was
    built with.
    """
    state = model.state_dict()
    metadata = {
        KIND_KEY: CHECKPOINT_KIND,
        "model_name": model.name,
        "model_class": type(model).__name__,
        "n_users": model.n_users,
        "n_items": model.n_items,
        "parameter_names": sorted(state),
        "precision": sorted({str(value.dtype) for value in state.values()}),
        "extra": extra or {},
    }
    return write_archive(path, state, metadata)


def load_checkpoint(model: Recommender, path: str, strict: bool = True) -> Dict:
    """Restore parameters into ``model``; returns the checkpoint metadata.

    With ``strict=True`` the checkpoint's model class and shape bookkeeping
    must match the target model exactly.
    """
    metadata = read_archive_metadata(path)
    check_header(path, metadata, CHECKPOINT_KIND, "a model checkpoint")
    if strict:
        if metadata["model_class"] != type(model).__name__:
            raise ValueError(
                f"checkpoint holds {metadata['model_class']}, target is {type(model).__name__}"
            )
        if metadata["n_users"] != model.n_users or metadata["n_items"] != model.n_items:
            raise ValueError(
                "checkpoint user/item counts "
                f"({metadata['n_users']}/{metadata['n_items']}) do not match model "
                f"({model.n_users}/{model.n_items})"
            )
    model.load_state_dict(read_archive_arrays(path))
    return metadata
