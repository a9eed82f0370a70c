"""Optimizers.

All optimizers run dual-mode: materialized (real parameter updates, used by
the convergence experiments) and spec (state allocation, FLOP and
memory-pool accounting only, used by the billion-parameter experiments).
``CPUAdam`` keeps its state in host memory and charges update time at
host-CPU rates; ``HybridAdam`` (§3.2 of the paper) splits the update
between GPU-resident and CPU-resident parameters according to the
placement function its caller passes.  The Adam state and update rule are
written once, in ``adam.adam_state`` / ``adam.adam_update``, which the
ZeRO optimizers share (DESIGN §4y).
"""

from repro.optim.optimizer import Optimizer
from repro.optim.sgd import SGD
from repro.optim.adam import Adam, AdamW
from repro.optim.cpu_adam import CPUAdam
from repro.optim.hybrid_adam import HybridAdam
from repro.optim.lr_scheduler import CosineAnnealingLR, LinearWarmupCosine

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "CPUAdam",
    "HybridAdam",
    "CosineAnnealingLR",
    "LinearWarmupCosine",
]
