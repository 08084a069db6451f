"""What every ANN index kind shares: memory accounting and the archive codec."""

from __future__ import annotations

import numpy as np

from ...data.dataset import expand_csr_rows
from ...eval.topk import NEG_INF


class AnnIndex:
    """Base of the ANN index kinds.

    Subclasses supply ``kind`` (the label reports and gauges carry) and
    ``memory_bytes()``; what an index looks like on disk is
    :mod:`.archive`'s business, not theirs.
    """

    kind: str

    @property
    def bytes_total(self) -> int:
        """Everything this index owns."""
        return int(self.memory_bytes())

    @property
    def bytes_per_item(self) -> float:
        """Item-side bytes per catalog item."""
        return self.memory_bytes() / max(1, self.n_items)

    def memory_report(self) -> dict:
        """The report shape the serving stats gauge publishes."""
        total = int(self.bytes_total)
        return {
            "kind": self.kind,
            "bytes_total": total,
            "bytes_per_item": float(self.bytes_per_item),
            "tiers": {"hot": total, "cold": 0},
        }

    def _masked_scan(self, users, k, exclude_csr=None, candidate_mask=None):
        """The front half of a full-scan ``search``: validate, score, mask.

        Returns ``(users, k, scores)``: int64 ``users``, ``k`` clamped to the
        catalog, and the dense ``self.score(users)`` matrix with filtered-out
        and excluded items at ``NEG_INF`` (``None`` for an empty batch).
        """
        users = np.asarray(users, dtype=np.int64)
        k = min(int(k), self.n_items)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if len(users) == 0:
            return users, k, None
        scores = self.score(users)
        if candidate_mask is not None:
            scores[:, ~np.asarray(candidate_mask, dtype=bool)] = NEG_INF
        if exclude_csr is not None:
            rows, cols = expand_csr_rows(*exclude_csr, users)
            if rows is not None:
                scores[rows, cols] = NEG_INF
        return users, k, scores

    def save(self, path: str, format: str = "npz", include_items: bool = False) -> str:
        """Persist this index's own arrays (the source index is referenced
        by name and shape, not duplicated) as a compact ``"npz"`` or an
        mmap-able ``"dir"`` archive.

        ``include_items=True`` (IVF kinds) also stores the *permuted*
        item-side factor arrays — the list-contiguous payload a tiered
        loader pages per list (see :mod:`.tiered`).
        """
        from .archive import save_ann  # deferred: archive imports the index classes

        return save_ann(self, path, format, include_items)

    @classmethod
    def load(cls, path: str, index, mmap: bool = False):
        """Re-attach a saved structure of this class to its source index."""
        from .archive import load_ann  # deferred: archive imports the index classes

        return load_ann(path, index, mmap=mmap, expect=cls)
