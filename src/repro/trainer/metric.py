"""Training metrics."""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor


class AverageMeter:
    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def update(self, value: float, n: int = 1) -> None:
        self.total += value * n
        self.count += n

    @property
    def avg(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0


class Accuracy:
    """Top-1 classification accuracy over logits and integer targets."""

    def __init__(self) -> None:
        self.correct = 0
        self.count = 0

    def update(self, logits, targets) -> None:
        if isinstance(logits, Tensor):
            if not logits.materialized:
                return
            logits = logits.numpy()
        pred = np.argmax(logits, axis=-1)
        targets = np.asarray(targets)
        self.correct += int(np.sum(pred == targets))
        self.count += targets.size

    @property
    def value(self) -> float:
        return self.correct / self.count if self.count else 0.0
