"""ZeRO-3 + offload training engine (the Fig 14 system).

Runs block-wise activation-checkpointed training of a huge model:

* **forward** — per block: fetch the block's chunks (host transfer for
  offloaded shards + all-gather across the data-parallel group), run the
  block under ``no_grad`` (no activations retained), release the full
  chunks, keep only the block input.
* **backward** — per block in reverse: re-fetch, recompute with gradients,
  backprop the incoming gradient, reduce-scatter the parameter gradients
  into per-rank shards (fp16 param storage reused per Fig 6), release.
* **step** — per chunk: ``Chunk.adam_step`` on the fp32 master shard, the
  update ZeRO-1/2 run too, on the device the placement policy chose (GPU
  for resident chunks — the paper's hybrid Adam; CPU for offloaded ones),
  then write the fp16 shard back.

The engine works identically in materialized mode (small models; parity
tests compare it against plain training) and spec mode (GPT-2 10B /
OPT-13B throughput experiments), because every constituent — autograd,
collectives, chunks — is dual-mode.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import numpy as np

from repro.autograd.function import no_grad
from repro.comm.communicator import Communicator
from repro.comm.cost import CostModel
from repro.nn.module import Module
from repro.runtime.spmd import RankContext
from repro.tensor.tensor import Tensor
from repro.zero.chunk import CHUNK_MB, Chunk, pack_chunks
from repro.zero.policies import PlacementPolicy
from repro.utils.units import MB

Criterion = Callable[[Tensor, Any], Tensor]


class ZeroOffloadEngine:
    def __init__(
        self,
        ctx: RankContext,
        blocks: List[Module],
        dp_comm: Communicator,
        policy: PlacementPolicy,
        criterion: Optional[Criterion] = None,
        chunk_mb: float = CHUNK_MB,
        lr: float = 1e-4,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        reuse_fp16_storage: bool = True,
        param_dtype: str = "float16",
        overlap: Optional[bool] = None,
    ) -> None:
        self.ctx = ctx
        self.blocks = blocks
        self.comm = dp_comm
        self.policy = policy
        self.criterion = criterion
        if overlap is None:
            overlap = getattr(ctx.runtime, "comm_overlap", False)
        #: overlap scheduler: prefetch the next block's all-gathers while the
        #: current block computes, reduce-scatter gradients asynchronously
        self.overlap = bool(overlap) and dp_comm.size > 1
        self.defaults = dict(lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)
        self.reuse_fp16_storage = reuse_fp16_storage
        self.cost_model = CostModel(ctx.cluster)
        self._tracer = getattr(ctx.runtime, "tracer", None)
        dtype = np.dtype(param_dtype)
        max_elements = int(chunk_mb * MB / dtype.itemsize)
        # one packing per block, so no chunk spans two checkpointed blocks
        # (its gradients must all exist when the chunk's reduce-scatter runs)
        self._block_chunks: List[List[Chunk]] = [
            pack_chunks(b.parameters(), dp_comm, ctx.device, ctx.cpu, max_elements, dtype)
            for b in blocks
        ]
        self.chunks: List[Chunk] = [c for cs in self._block_chunks for c in cs]
        policy.setup(self.chunks, ctx.clock)
        # each chunk's Adam state lives on the device the policy chose for
        # the chunk's update
        for chunk in self.chunks:
            where = policy.optimizer_device(chunk)
            chunk.init_adam(ctx.device if where == "gpu" else ctx.cpu)
        self._step = 0

    # -- chunk traffic ------------------------------------------------------------

    def _prefetch_block(self, idx: int) -> None:
        """Issue the block's all-gathers on the comm stream (overlap mode);
        the block's later ``_fetch_block`` waits them."""
        for chunk in self._block_chunks[idx]:
            if not chunk.is_fetched and chunk._pending_gather is None:
                self.policy.pre_fetch(chunk, self.ctx.clock, self._step)
                chunk.prefetch(self.cost_model, self.ctx.rank, self.ctx.clock)

    def _fetch_block(self, idx: int) -> None:
        t0 = self.ctx.clock.time
        for chunk in self._block_chunks[idx]:
            if chunk._pending_gather is None:
                self.policy.pre_fetch(chunk, self.ctx.clock, self._step)
            chunk.fetch(self.cost_model, self.ctx.rank, self.ctx.clock, self._step)
        if self._tracer is not None:
            self._tracer.annotate(
                self.ctx.rank, "zero", f"fetch/block{idx}",
                t0, self.ctx.clock.time,
            )
            self._tracer.sample_memory(
                self.ctx.rank, self.ctx.device, self.ctx.clock.time
            )

    def _release_block(self, idx: int) -> None:
        t0 = self.ctx.clock.time
        for chunk in self._block_chunks[idx]:
            chunk.release_full()
            self.policy.post_release(chunk, self.ctx.clock, self._step)
        if self._tracer is not None:
            self._tracer.annotate(
                self.ctx.rank, "zero", f"release/block{idx}",
                t0, self.ctx.clock.time,
            )
            self._tracer.sample_memory(
                self.ctx.rank, self.ctx.device, self.ctx.clock.time
            )

    # -- training -----------------------------------------------------------------

    def train_step(self, data, target=None) -> Optional[float]:
        """One optimizer step over one (local) batch; returns the loss when
        materialized."""
        self._step += 1
        if self._tracer is not None:
            with self._tracer.region(
                self.ctx.rank, "step", f"zero_step{self._step}", self.ctx.clock
            ):
                return self._train_step_inner(data, target)
        return self._train_step_inner(data, target)

    def _train_step_inner(self, data, target=None) -> Optional[float]:
        x = data if isinstance(data, Tensor) else Tensor(data)
        inputs: List[Tensor] = []
        with no_grad():
            for b in range(len(self.blocks)):
                self._fetch_block(b)
                if self.overlap and b + 1 < len(self.blocks):
                    self._prefetch_block(b + 1)
                inputs.append(x)
                x = self.blocks[b](x)
                self._release_block(b)

        loss_val: Optional[float] = None
        grad_in = None
        last = len(self.blocks) - 1
        for b in range(last, -1, -1):
            self._fetch_block(b)
            if self.overlap and b > 0:
                self._prefetch_block(b - 1)
            xin = inputs[b].detach()
            xin.requires_grad = b > 0
            out = self.blocks[b](xin)  # recompute with graph
            if b == last:
                if self.criterion is None:
                    raise RuntimeError("ZeroOffloadEngine.train_step needs a criterion")
                loss = self.criterion(out, target)
                if loss.materialized:
                    loss_val = loss.item()
                loss.backward()
            else:
                out.backward(Tensor(grad_in))
            grad_in = xin.grad.payload if xin.grad is not None else None
            for chunk in self._block_chunks[b]:
                chunk.reduce_scatter_grads(self.cost_model, self.ctx.rank, self.ctx.clock,
                                           self.reuse_fp16_storage, async_op=self.overlap)
            self._release_block(b)
            inputs[b] = None  # type: ignore[call-overload]

        ctx = self.ctx
        for i, chunk in enumerate(self.chunks):
            chunk.finish_grad_reduce()
            # AdamW, priced on the device the policy chooses now
            where = self.policy.optimizer_device(chunk)
            t0 = ctx.clock.time
            chunk.adam_step(ctx.device if where == "gpu" else ctx.cpu, ctx.clock,
                            self.defaults, True)
            if self._tracer is not None:
                self._tracer.annotate(
                    ctx.rank, "zero", f"adam/chunk{i}",
                    t0, ctx.clock.time, where=where,
                )
        return loss_val

    def gather_parameters(self) -> None:
        """Reconstruct full parameter values on every rank (all-gather each
        chunk, then release).  Needed before reading weights for evaluation
        or checkpointing: after ``step`` only each rank's own shard slice is
        up to date."""
        for chunk in self.chunks:
            chunk.fetch(self.cost_model, self.ctx.rank, self.ctx.clock, self._step)
            chunk.release_full()

    # -- introspection ----------------------------------------------------------------

    def gpu_param_fraction(self) -> float:
        """Fraction of parameter shards resident on the GPU."""
        total = sum(c.shard_nbytes for c in self.chunks)
        on_gpu = sum(c.shard_nbytes for c in self.chunks if c.location == "gpu")
        return on_gpu / total if total else 0.0
