"""What every ANN index kind shares: memory accounting and the archive codec."""

from __future__ import annotations


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
