"""Adam and AdamW (Kingma & Ba [17]; decoupled weight decay).

Keeps fp32 master weights when the parameter storage dtype is narrower
(mixed-precision training), plus fp32 ``m``/``v`` moments — the 3x-plus
model-data blowup of "stateful optimizers" that §2.1 of the paper
describes and ZeRO exists to shard.

:func:`adam_state` and :func:`adam_update` are the only places that state
and the update rule are written: ``Adam`` calls them per parameter,
``Chunk.init_adam`` / ``Chunk.adam_step`` per chunk shard for every ZeRO
stage — ZeRO-1/2's ``ZeroRedundancyOptimizer`` and ZeRO-3's
``ZeroOffloadEngine`` (DESIGN §4y).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

import numpy as np

from repro.comm.payload import Payload
from repro.optim.optimizer import Optimizer
from repro.tensor.tensor import Tensor
from repro.tensor import zeros


def adam_state(shape, device, master: Optional[Payload] = None) -> Dict[str, Any]:
    """Fresh fp32 Adam state on ``device``: ``m`` and ``v`` moments of
    ``shape``, step count ``t``, and — when ``master`` is given — an fp32
    master copy of it (a spec payload allocates the bytes only)."""
    state: Dict[str, Any] = {
        "m": zeros(shape, dtype="float32", device=device, tag="optim"),
        "v": zeros(shape, dtype="float32", device=device, tag="optim"),
        "t": 0,
    }
    if master is not None:
        state["master"] = Tensor(master.astype(np.float32), device=device, tag="optim")
    return state


def adam_update(weights, state, g, lr, betas, eps, wd, decoupled) -> None:
    """One Adam step: updates the fp32 ndarray ``weights`` and ``state`` in
    place from gradient ``g``. ``wd`` decays ``weights`` either into the
    gradient (``decoupled=False``, Adam) or into the update (AdamW)."""
    b1, b2 = betas
    state["t"] += 1
    t = state["t"]
    if wd and not decoupled:
        g = g + wd * weights
    m = state["m"].numpy()
    v = state["v"].numpy()
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * g * g
    mhat = m / (1 - b1**t)
    vhat = v / (1 - b2**t)
    update = mhat / (np.sqrt(vhat) + eps)
    if wd and decoupled:
        update = update + wd * weights
    weights -= lr * update


class Adam(Optimizer):
    FLOPS_PER_ELEMENT = 12.0
    DECOUPLED_WD = False

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(
            params, dict(lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)
        )

    def _init_state(self, p: Tensor) -> Dict[str, Any]:
        return adam_state(p.shape, p.device, p.payload if p.dtype != np.float32 else None)

    def _update(self, p: Tensor, grad: np.ndarray, state: Dict[str, Any]) -> None:
        d = self.defaults
        master = state.get("master")
        weights = p.numpy() if master is None else master.numpy()
        adam_update(weights, state, grad.astype(np.float32, copy=False), d["lr"],
                    d["betas"], d["eps"], d["weight_decay"], self.DECOUPLED_WD)
        if master is not None:
            p.payload[...] = weights.astype(p.dtype)


class AdamW(Adam):
    """Adam with decoupled weight decay — the optimizer of the paper's ViT
    convergence experiment (lr 0.003, wd 0.3, §5.2)."""

    DECOUPLED_WD = True

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 3e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.3,
    ) -> None:
        super().__init__(params, lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)
