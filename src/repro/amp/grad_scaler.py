"""Dynamic loss scaling.

fp16 gradients underflow; scaling the loss by a large factor before
backward and unscaling gradients before the optimizer step keeps them
representable.  The scale grows after ``growth_interval`` consecutive
finite steps and backs off on overflow, skipping that step — the standard
dynamic schedule.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.config import FP16Config
from repro.tensor.tensor import Tensor


class GradScaler:
    def __init__(self, config: FP16Config = FP16Config(enabled=True)) -> None:
        self.scale = config.initial_scale
        self.min_scale = config.min_scale
        self.growth_interval = config.growth_interval
        self.backoff = config.backoff_factor
        self.growth = config.growth_factor
        self._good_steps = 0
        self.overflows = 0

    def scale_loss(self, loss: Tensor) -> Tensor:
        from repro.autograd import ops

        return ops.mul(loss, float(self.scale))

    def unscale_and_check(self, params: Iterable[Tensor], comm=None) -> bool:
        """Divide grads by the scale; returns True when all grads are
        finite (step may proceed), False on overflow (step must be
        skipped).  Spec-mode grads are assumed finite.  With ``comm``, its
        ranks agree the verdict by a ``max`` all-reduce: one overflow skips all."""
        finite = True
        inv = 1.0 / self.scale
        for p in params:
            if p.grad is None:
                continue
            if not p.grad.materialized:
                continue
            g = p.grad.numpy()
            if not np.all(np.isfinite(g)):
                finite = False
            g *= inv
        if comm is not None:
            finite = not comm.all_reduce(np.array([not finite], np.float32), "max")[0]
        self._after_check(finite)
        return finite

    def state_dict(self) -> dict:
        """Dynamic-scale state for checkpointing."""
        return {
            "scale": self.scale,
            "good_steps": self._good_steps,
            "overflows": self.overflows,
        }

    def load_state_dict(self, state: dict) -> None:
        self.scale = state["scale"]
        self._good_steps = state["good_steps"]
        self.overflows = state["overflows"]

    def _after_check(self, finite: bool) -> None:
        if finite:
            self._good_steps += 1
            if self._good_steps >= self.growth_interval:
                self.scale *= self.growth
                self._good_steps = 0
        else:
            self.overflows += 1
            self.scale = max(self.scale * self.backoff, self.min_scale)
            self._good_steps = 0
