"""Training loop, configuration and model checkpoints."""

from .config import TrainConfig
from .trainer import TrainResult, Trainer, train_model
from .persistence import load_checkpoint, save_checkpoint

__all__ = [
    "TrainConfig",
    "TrainResult",
    "Trainer",
    "train_model",
    "load_checkpoint",
    "save_checkpoint",
]
