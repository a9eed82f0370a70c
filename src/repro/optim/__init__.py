"""Optimizers.

All optimizers run dual-mode: materialized (real parameter updates, used by
the convergence experiments) and spec (state allocation, FLOP and
memory-pool accounting only, used by the billion-parameter experiments).
The Adam state and update rule are written once, in ``adam.adam_state`` /
``adam.adam_update``, which the ZeRO optimizers share (DESIGN §4y).  The
paper's hybrid Adam (§3.2), which updates GPU-resident state on the GPU and
host-resident state on the CPU, is the ZeRO-3 engine's per-chunk choice
(``PlacementPolicy.optimizer_device``).
"""

from repro.optim.optimizer import Optimizer
from repro.optim.sgd import SGD
from repro.optim.adam import Adam, AdamW
from repro.optim.lr_scheduler import LinearWarmupCosine

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "LinearWarmupCosine",
]
