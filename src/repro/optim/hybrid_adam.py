"""Hybrid Adam (§3.2 of the paper).

Colossal-AI's answer to CPU Adam: instead of statically pinning all fp32
master state in host memory, the optimizer keeps the states of
*GPU-resident* parameters on the GPU and updates them at GPU rates; only
parameters placed on the CPU are updated there.  The placement is asked
per parameter of the caller's ``placement_of`` function (default: every
parameter on the GPU), once when its state is built and again at every
step's charge — "parameters are updated on both CPU and GPU" exactly as
the paper describes.  The ZeRO-3 engine makes the same choice per chunk
from its offload policy (``PlacementPolicy.optimizer_device``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.optim.adam import Adam
from repro.runtime.spmd import current_rank_context, in_spmd
from repro.tensor.tensor import Tensor

#: returns "gpu" or "cpu" for a parameter
PlacementFn = Callable[[Tensor], str]


class HybridAdam(Adam):
    DECOUPLED_WD = True

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        placement_of: Optional[PlacementFn] = None,
    ) -> None:
        super().__init__(params, lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)
        self.placement_of: PlacementFn = placement_of or (lambda p: "gpu")

    def _device_for(self, p: Tensor):
        where = self.placement_of(p)
        if not in_spmd():
            return p.device
        ctx = current_rank_context()
        return ctx.cpu if where == "cpu" else ctx.device
