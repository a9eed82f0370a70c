"""SGD with momentum and weight decay."""

from __future__ import annotations

from typing import Any, Dict, Iterable

import numpy as np

from repro.optim.optimizer import Optimizer
from repro.tensor.tensor import Tensor
from repro.tensor import zeros


class SGD(Optimizer):
    FLOPS_PER_ELEMENT = 4.0

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, dict(lr=lr, momentum=momentum, weight_decay=weight_decay))

    def _init_state(self, p: Tensor) -> Dict[str, Any]:
        if self.defaults["momentum"]:
            return {"velocity": zeros(p.shape, dtype="float32", device=p.device, tag="optim")}
        return {}

    def _update(self, p: Tensor, grad: np.ndarray, state: Dict[str, Any]) -> None:
        lr = self.defaults["lr"]
        wd = self.defaults["weight_decay"]
        mu = self.defaults["momentum"]
        g = grad.astype(np.float32, copy=False)
        if wd:
            g = g + wd * p.numpy()
        if mu:
            v = state["velocity"].numpy()
            v *= mu
            v += g
            p.payload -= (lr * v).astype(p.dtype)
        else:
            p.payload -= (lr * g).astype(p.dtype)
