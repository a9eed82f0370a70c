"""ZeRO stages 1-2 for ordinary data-parallel training (§2.1 of the paper).

Wraps standard training (full parameters on every rank) but shards the
expensive parts across the data-parallel group:

* **stage 1** — optimizer states sharded: ``step`` slices the gradients
  data parallelism already averaged, keeps Adam moments and fp32 master
  weights only for its 1/p slice, updates it and all-gathers the result.
* **stage 2** — gradients sharded too: ``step`` reduce-scatters the local
  gradients instead (each rank receives only its slice's gradient, halving
  gradient traffic and removing grad redundancy).

Each slice's state comes from ``adam_state`` and its update is
``adam_update``, charged per slice element on the parameter's device: it
is an :class:`~repro.optim.Adam` whose state and step cover one slice, with
coupled (``decoupled_wd=False``) or decoupled weight decay.
``initialize()`` builds it from ``zero.stage`` 1 or 2 (DESIGN §4z).

(Stage 3 — parameter sharding — lives in :class:`ZeroOffloadEngine`, where
gather/release is interleaved with compute.)
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

import numpy as np

from repro.comm.communicator import Communicator
from repro.comm.payload import SpecArray
from repro.optim.adam import Adam, adam_state, adam_update
from repro.tensor.tensor import Tensor
from repro.zero.sharded_tensor import FlatShardingStrategy


class ZeroRedundancyOptimizer(Adam):
    """Adam (``decoupled_wd=False``) or AdamW with ZeRO stage 1/2 sharding
    over ``comm``."""

    def __init__(
        self,
        params: Iterable[Tensor],
        comm: Communicator,
        stage: int = 1,
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        decoupled_wd: bool = True,
    ) -> None:
        if stage not in (1, 2):
            raise ValueError(f"ZeroRedundancyOptimizer handles stages 1-2, got {stage}")
        super().__init__(params, lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)
        self.comm = comm
        self.stage = stage
        self.decoupled_wd = decoupled_wd
        self.strategy = FlatShardingStrategy()
        for p in self.params:  # each rank holds its slices' state from the start
            self.state_for(p)

    def _init_state(self, p: Tensor) -> Dict[str, Any]:
        # moments plus the fp32 master of this rank's flat slice (1/p of it)
        shard = self.strategy.shard(p.payload, self.comm)
        return adam_state(shard.shape, p.device, shard)

    def _grad_shard(self, p: Tensor, per: int):
        """This rank's flat slice of the averaged gradient: stage 1 slices
        the one data parallelism averaged, stage 2 reduce-scatters."""
        if not p.grad.materialized:
            if self.stage == 2:
                self.comm.reduce_scatter(SpecArray((per * self.comm.size,), "float32"), axis=0)
            return None
        if self.stage == 1:
            return self.strategy.shard(p.grad.numpy(), self.comm).astype(np.float32, copy=False)
        padded = np.zeros(per * self.comm.size, dtype=np.float32)
        padded[: p.size] = p.grad.numpy().reshape(-1)
        return self.comm.reduce_scatter(padded, axis=0) / self.comm.size

    def step(self) -> None:
        self.step_count += 1
        d = self.defaults
        for p in self.params:
            if p.grad is None:
                continue
            st = self.state[id(p)]
            per = st["m"].size
            g = self._grad_shard(p, per)
            self._charge(per, p.device)
            if g is not None:
                adam_update(st["master"].numpy(), st, g, d["lr"], d["betas"],
                            d["eps"], d["weight_decay"], self.decoupled_wd)
            # reassemble the full parameter from the updated shards
            if p.materialized:
                gathered = self.comm.all_gather(st["master"].numpy(), axis=0)
                p.payload[...] = (
                    gathered[: p.size].reshape(p.shape).astype(p.dtype)
                )
            else:
                self.comm.all_gather(SpecArray((per,), "float32"), axis=0)

    def optimizer_state_bytes(self) -> int:
        return sum(
            st["m"].nbytes + st["v"].nbytes + st["master"].nbytes
            for st in self.state.values()
        )
