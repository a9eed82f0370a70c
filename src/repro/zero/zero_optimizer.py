"""ZeRO stages 1-2: Adam sharded by chunk across the data-parallel group
(§2.1 and §3.2 of the paper; DESIGN §4z).

The parameters are packed once into right-sized chunks of up to
``CHUNK_MB``, and a step issues one gradient reduce-scatter and one
parameter all-gather per chunk, in the parameters' dtype, around
``Chunk.adam_step`` on this rank's fp32 master shard — ZeRO-3's update too.
Stage 1 keeps a chunk's full gradients until ``zero_grad``; stage 2 drops
them once its reduce-scatter is issued.  ``Engine.step`` calls :meth:`sync`
where stage 0 all-reduces; after :meth:`overlap_backward` each chunk's
reduce-scatter is issued from the gradient hook that completes it (DDP's
:class:`~repro.autograd.engine.ReadyCount`) and :meth:`step` waits it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.autograd.engine import ReadyCount
from repro.comm.communicator import Communicator
from repro.optim.optimizer import Optimizer
from repro.runtime.spmd import current_rank_context
from repro.tensor.tensor import Tensor
from repro.utils.units import MB
from repro.zero.chunk import CHUNK_MB, pack_chunks


class ZeroRedundancyOptimizer(Optimizer, ReadyCount):
    """Adam (``decoupled_wd=False``) or AdamW over ``params`` with ZeRO
    stage 1/2 sharding over ``comm``."""

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
        super().__init__(params, dict(lr=lr, betas=betas, eps=eps, weight_decay=weight_decay))
        self.comm = comm
        self.stage = stage
        self.decoupled_wd = decoupled_wd
        self.overlap = False
        ctx = current_rank_context()
        self._clock = ctx.clock
        dtype = self.params[0].dtype
        self.chunks = pack_chunks(self.params, comm, ctx.device, ctx.cpu,
                                  int(CHUNK_MB * MB / dtype.itemsize), dtype)
        for chunk in self.chunks:
            chunk.keep_full()
            chunk.init_adam(chunk.gpu)
        # each chunk's state filed under its first parameter, where the base
        # class's state_dict / load_state_dict checkpoint it
        self.state = {id(c.records[0].param): c.adam for c in self.chunks}
        self._groups = [[r.param for r in c.records] for c in self.chunks]
        self._arm(self._groups, hooked=False)

    def overlap_backward(self) -> None:
        """Issue each chunk's reduce-scatter nonblocking from the gradient
        hook that completes the chunk, overlapping it with the rest of
        backward; :meth:`step` waits it."""
        self.overlap = True
        self._arm(self._groups)

    def _flush(self, ci: int) -> None:
        self._flushed[ci] = True
        self.chunks[ci].reduce_scatter_grads(
            reuse_fp16_storage=False, async_op=self.overlap, keep_grads=self.stage == 1)

    def sync(self) -> None:
        """Reduce-scatter every chunk backward has not issued yet."""
        self._flush_rest()

    def clip_grad_norm(self, max_norm: float) -> float:
        """Global L2 clipping over the averaged grad shards: one scalar
        all-reduce sums the ranks' squares.  Returns the norm."""
        self.sync()
        square = 0.0
        for chunk in self.chunks:
            chunk.finish_grad_reduce()
            if chunk.grad_shard is not None:
                square += float(np.dot(chunk.grad_shard, chunk.grad_shard))
        total = float(np.sqrt(self.comm.all_reduce(np.array([square]))[0]))
        if max_norm > 0 and total > max_norm:
            scale = max_norm / (total + 1e-6)
            for chunk in self.chunks:
                g = chunk.grad_shard
                if g is not None:
                    g *= scale
        return total

    def step(self) -> None:
        self.sync()
        self.step_count += 1
        for chunk in self.chunks:
            chunk.finish_grad_reduce()
            chunk.adam_step(chunk.gpu, self._clock, self.defaults, self.decoupled_wd)
            chunk.gather()
        self._rearm()
