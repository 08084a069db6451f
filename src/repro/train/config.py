"""Training configuration.

Paper defaults (Section V-A3): BPR loss, embedding size 64, Adam with
initial lr 1e-2, batch size 1024, negative sampling rate 1, 200 epochs with
the learning rate reduced by 10x twice.  The defaults here are the same
hyper-parameters at reduced epoch count (the synthetic datasets are far
smaller than the originals and converge much earlier).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Sequence


#: execution knobs that no longer exist; old spec.json files still carry them
_RETIRED_FIELDS = ("eval_shards", "eval_mode")


@dataclass
class TrainConfig:
    """Hyper-parameters for :class:`~repro.train.trainer.Trainer`."""

    epochs: int = 40
    batch_size: int = 1024
    learning_rate: float = 1e-2
    l2_weight: float = 1e-4
    negative_rate: int = 1
    lr_milestones: Sequence[int] = field(default_factory=lambda: (20, 30))
    lr_decay: float = 0.1
    seed: int = 0
    eval_every: int = 0  # 0 disables validation tracking
    eval_k: int = 50
    eval_workers: int = 0  # parallel workers for validation passes (0 = serial)
    early_stop_patience: int = 0  # 0 disables early stopping
    loss: str = "bpr"  # "bpr" (standard, stable) or "bpr_eq4" (literal Eq. 4)
    fused_kernels: bool = True  # single-node BPR/L2 kernels (False: composed ops)
    verbose: bool = False

    def __post_init__(self) -> None:
        # Canonicalize so configs compare equal across JSON round-trips.
        self.lr_milestones = tuple(int(m) for m in self.lr_milestones)
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.l2_weight < 0:
            raise ValueError(f"l2_weight must be >= 0, got {self.l2_weight}")
        if self.negative_rate < 1:
            raise ValueError(f"negative_rate must be >= 1, got {self.negative_rate}")
        if self.eval_every < 0 or self.early_stop_patience < 0:
            raise ValueError("eval_every and early_stop_patience must be >= 0")
        if self.eval_workers < 0:
            raise ValueError(f"eval_workers must be >= 0, got {self.eval_workers}")
        if self.early_stop_patience and not self.eval_every:
            raise ValueError("early stopping requires eval_every > 0")
        if self.loss not in ("bpr", "bpr_eq4"):
            raise ValueError(f"loss must be 'bpr' or 'bpr_eq4', got {self.loss!r}")
        self.fused_kernels = bool(self.fused_kernels)

    # ------------------------------------------------------------------
    # Serialization (used by repro.experiments specs and artifact dirs)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; inverse of :meth:`from_dict`."""
        payload = asdict(self)
        payload["lr_milestones"] = [int(m) for m in self.lr_milestones]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TrainConfig":
        """Rebuild a config serialized by :meth:`to_dict` (validates fields).

        ``eval_shards`` and ``eval_mode``, retired execution knobs that never
        changed a result, are dropped so configs saved before their removal
        still load.
        """
        payload = {
            key: value for key, value in payload.items() if key not in _RETIRED_FIELDS
        }
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown TrainConfig fields: {sorted(unknown)}")
        if "lr_milestones" in payload:
            payload["lr_milestones"] = tuple(int(m) for m in payload["lr_milestones"])
        return cls(**payload)
