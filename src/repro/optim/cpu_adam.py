"""CPU Adam — the DeepSpeed zero-offload design (§2.4 / §3.2 of the paper).

The Adam math is identical to :class:`Adam`, but moments and master weights
live in *host* memory and the update runs at host-CPU FLOP rates, so the
simulated clock reflects the real cost trade of offloaded updates (slow
CPU math + PCIe traffic vs freed GPU memory).  It is a :class:`HybridAdam`
that places every parameter on the CPU.
"""

from __future__ import annotations

from typing import Iterable

from repro.optim.hybrid_adam import HybridAdam
from repro.tensor.tensor import Tensor


class CPUAdam(HybridAdam):
    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(
            params, lr=lr, betas=betas, eps=eps, weight_decay=weight_decay,
            placement_of=lambda p: "cpu",
        )
