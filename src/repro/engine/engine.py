"""The training Engine (Listing 1 of the paper).

Wraps (model, optimizer, criterion) and injects the configured acceleration
features::

    engine.zero_grad()
    output = engine(data)
    loss = engine.criterion(output, label)
    engine.backward(loss)
    engine.step()

``backward`` applies loss scaling (fp16) and ``step`` performs, in order:
grad unscale + an overflow vote of all ranks, replicated-parameter grad sync
(``grad_sync_comms``), the data-parallel gradient exchange (DDP's or
``sync_gradients``' all-reduce, or ZeRO-1/2's per-chunk reduce-scatter),
clipping, and the optimizer update.  With a pipeline schedule,
``engine.execute_schedule`` replaces the forward/backward pair.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.amp.grad_scaler import GradScaler
from repro.autograd.engine import ReadyCount
from repro.config import Config
from repro.context.parallel_context import ParallelContext, ParallelMode
from repro.nn.module import Module
from repro.parallel.common import sync_parameter_gradients
from repro.parallel.data import DistributedDataParallel, sync_gradients
from repro.parallel.pipeline.schedule import PipelineSchedule
from repro.tensor.tensor import Tensor


class Engine:
    def __init__(
        self,
        model: Module,
        optimizer: Any,
        criterion: Optional[Callable],
        pc: ParallelContext,
        config: Config,
        schedule: Optional[PipelineSchedule] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.criterion = criterion
        self.pc = pc
        self.config = config
        self.schedule = schedule
        self.scaler = GradScaler(config.fp16) if config.fp16.enabled else None
        self.steps_skipped = 0
        self.global_step = 0
        self.gradient_accumulation = 1
        self._accum_count = 0

    # -- Listing-1 surface -------------------------------------------------------

    def __call__(self, *args: Any, **kwargs: Any) -> Tensor:
        return self.model(*args, **kwargs)

    def zero_grad(self) -> None:
        self.optimizer.zero_grad()

    def backward(self, loss: Tensor) -> None:
        if self.gradient_accumulation > 1:
            if any(isinstance(o, ReadyCount) and o.overlap
                   for o in (self.model, self.optimizer)):
                raise RuntimeError(
                    "gradient accumulation needs overlap=False: hook-driven "
                    "flushing (DDP buckets, ZeRO chunks) would exchange the "
                    "gradients after the first backward instead of once per "
                    "accumulation window"
                )
            from repro.autograd import ops

            loss = ops.mul(loss, 1.0 / self.gradient_accumulation)
        if self.scaler is not None:
            loss = self.scaler.scale_loss(loss)
        loss.backward()

    def step(self) -> bool:
        """Sync + update; returns False when fp16 overflow skipped the step
        or when still inside a gradient-accumulation window (grads kept)."""
        if self.gradient_accumulation > 1:
            self._accum_count += 1
            if self._accum_count < self.gradient_accumulation:
                return False
            self._accum_count = 0
        params = self.model.parameters()
        if self.scaler is not None:
            if not self.scaler.unscale_and_check(params, self.pc.comm(ParallelMode.GLOBAL)):
                self.steps_skipped += 1
                self.optimizer.zero_grad()
                return False
        # replicated-parameter sums (2.5D depth, sequence parallelism)
        sync_parameter_gradients(self.model)
        # the data-parallel exchange; a DDP-wrapped model owns its own sync,
        # and ZeRO-1/2 (the optimizer that counts ready gradients) its
        # chunks' reduce-scatters — under overlap both issued them on the
        # comm stream during backward
        if isinstance(self.model, DistributedDataParallel):
            self.model.sync()
        elif isinstance(self.optimizer, ReadyCount):
            self.optimizer.sync()
        elif self.pc.data_size > 1:
            sync_gradients(params, self.pc.comm(ParallelMode.DATA))
        if self.config.gradient_clipping > 0:
            self.optimizer.clip_grad_norm(self.config.gradient_clipping)
        self.optimizer.step()
        self.global_step += 1
        return True

    # -- pipeline ------------------------------------------------------------------

    def execute_schedule(self, data, targets=None) -> Optional[float]:
        """Run one full pipelined step (forward+backward over all
        microbatches); caller still invokes ``engine.step()``."""
        if self.schedule is None:
            raise RuntimeError("engine was initialized without a pipeline schedule")
        return self.schedule.run(self.model, data, targets, self.criterion)

    def train(self) -> None:
        self.model.train()

    def eval(self) -> None:
        self.model.eval()
