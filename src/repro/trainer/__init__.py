"""Trainer with lifecycle hooks (§4 extensibility)."""

from repro.trainer.trainer import Trainer
from repro.trainer.checkpoint import Checkpoint, CheckpointManager
from repro.trainer.hooks import (
    Hook,
    LRSchedulerHook,
    LossLoggingHook,
    ThroughputHook,
)
from repro.trainer.metric import Accuracy, AverageMeter

__all__ = [
    "Trainer",
    "Checkpoint",
    "CheckpointManager",
    "Hook",
    "LossLoggingHook",
    "LRSchedulerHook",
    "ThroughputHook",
    "Accuracy",
    "AverageMeter",
]
