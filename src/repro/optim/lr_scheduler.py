"""Learning-rate schedules."""

from __future__ import annotations

import math


class LRScheduler:
    def __init__(self, optimizer, base_lr: float) -> None:
        self.optimizer = optimizer
        self.base_lr = base_lr
        self.last_step = 0

    def get_lr(self, step: int) -> float:
        raise NotImplementedError

    def step(self) -> float:
        self.last_step += 1
        lr = self.get_lr(self.last_step)
        self.optimizer.defaults["lr"] = lr
        return lr


class LinearWarmupCosine(LRScheduler):
    """Linear warmup to ``base_lr`` over ``warmup_steps``, then cosine decay
    to ``min_lr`` at ``total_steps`` — the schedule used in ViT training;
    ``warmup_steps=0`` is plain cosine annealing."""

    def __init__(
        self,
        optimizer,
        base_lr: float,
        warmup_steps: int,
        total_steps: int,
        min_lr: float = 0.0,
    ) -> None:
        super().__init__(optimizer, base_lr)
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.min_lr = min_lr

    def get_lr(self, step: int) -> float:
        if step < self.warmup_steps:
            return self.base_lr * step / max(self.warmup_steps, 1)
        t = (step - self.warmup_steps) / max(self.total_steps - self.warmup_steps, 1)
        t = min(t, 1.0)
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1 + math.cos(math.pi * t))
