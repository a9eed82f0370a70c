"""Trainer: epoch/step loop driving an Engine, with hooks.

Resilience: with a :class:`~repro.trainer.checkpoint.CheckpointManager`
attached (``checkpoint=`` / ``checkpoint_every=``), every rank snapshots
its full training state every N steps.  After a crash
(:class:`~repro.runtime.errors.RankFailure` aborting the SPMD program),
``Checkpoint.restore(trainer, loader)`` rewinds a freshly-built trainer to
the last consistent snapshot and ``fit`` continues — skipping
already-trained batches by replaying the loader — to a final state bitwise
identical to an uninterrupted run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.engine.engine import Engine
from repro.runtime.spmd import current_rank_context, in_spmd
from repro.tensor.tensor import Tensor
from repro.trainer.checkpoint import Checkpoint, CheckpointManager
from repro.trainer.hooks import Hook


class Trainer:
    """Runs ``engine`` over a dataloader for N epochs.

    The dataloader yields ``(data, label)`` pairs; ``shard_input`` /
    ``loss_fn`` indirections let parallel model bundles slice inputs and
    compute mode-aware losses without the loop knowing the parallel mode.
    """

    def __init__(
        self,
        engine: Engine,
        hooks: Optional[List[Hook]] = None,
        shard_input: Optional[Callable[[Any], Any]] = None,
        loss_fn: Optional[Callable] = None,
        checkpoint: Optional[CheckpointManager] = None,
        checkpoint_every: int = 0,
    ) -> None:
        self.engine = engine
        self.hooks = sorted(hooks or [], key=lambda h: h.priority)
        self.shard_input = shard_input or (lambda x: x)
        self.loss_fn = loss_fn
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.step = 0
        self.epoch = 0
        self.history: Dict[str, List[float]] = {}
        # resume machinery (armed by Checkpoint.restore)
        self._resumed = False
        self._resume_skip = 0
        self._steps_into_epoch = 0
        self._epoch_loader_state: Optional[Dict[str, Any]] = None
        self._active_loader: Optional[Any] = None

    def sim_time(self) -> float:
        if in_spmd():
            return current_rank_context().clock.time
        return 0.0

    def _trace_ctx(self):
        """(tracer, rank_context) — (None, None) when untraced or outside
        SPMD, so every trace site is one cheap check."""
        if in_spmd():
            ctx = current_rank_context()
            tracer = getattr(ctx.runtime, "tracer", None)
            if tracer is not None:
                return tracer, ctx
        return None, None

    def _fire(self, event: str, *args: Any) -> None:
        for h in self.hooks:
            getattr(h, event)(self, *args)

    def _check_injected_crash(self) -> None:
        """Fire any RankCrash(at_step=...) scheduled for the next step."""
        if not in_spmd():
            return
        ctx = current_rank_context()
        injector = getattr(ctx.runtime, "fault_injector", None)
        if injector is not None:
            injector.on_step(ctx.rank, self.step + 1)

    def _maybe_checkpoint(self) -> None:
        if (self.checkpoint is None or self.checkpoint_every <= 0
                or self.step % self.checkpoint_every != 0):
            return
        rank = current_rank_context().rank if in_spmd() else 0
        tracer, ctx = self._trace_ctx()
        if tracer is not None:
            with tracer.region(
                rank, "checkpoint", f"ckpt@step{self.step}", ctx.clock
            ):
                self.checkpoint.save(rank, Checkpoint.capture(self))
            return
        self.checkpoint.save(rank, Checkpoint.capture(self))

    def fit(self, dataloader: Iterable, epochs: int = 1) -> Dict[str, List[float]]:
        """Train for ``epochs`` epochs.  After ``Checkpoint.restore``,
        ``epochs`` is the *total* target and completed epochs are not
        re-run; the first resumed epoch replays (skips) batches the
        checkpoint already covers so the data order is unchanged.
        """
        self._fire("on_fit_start")
        remaining = epochs - self.epoch if self._resumed else epochs
        self._active_loader = dataloader
        for _ in range(max(0, remaining)):
            self.epoch += 1
            self.engine.train()
            self._fire("on_epoch_start")
            # Loader RNG is at its epoch-start state here (fresh epoch or
            # rewound by Checkpoint.restore); snapshot it for checkpoints.
            self._epoch_loader_state = (
                dataloader.state_dict()
                if hasattr(dataloader, "state_dict") else None
            )
            self._steps_into_epoch = 0
            for data, label in dataloader:
                if self._resume_skip > 0:
                    # Replay: this batch was trained before the checkpoint.
                    self._resume_skip -= 1
                    self._steps_into_epoch += 1
                    continue
                self._check_injected_crash()
                self._fire("before_step")
                tracer, tctx = self._trace_ctx()
                t0 = tctx.clock.time if tracer is not None else 0.0
                self.engine.zero_grad()
                if self.engine.schedule is not None:
                    loss_val = self.engine.execute_schedule(data, label)
                else:
                    x = self.shard_input(data)
                    if not isinstance(x, Tensor):
                        x = Tensor(x)
                    output = self.engine(x)
                    if self.loss_fn is not None:
                        loss = self.loss_fn(output, label)
                    else:
                        loss = self.engine.criterion(output, label)
                    self.engine.backward(loss)
                    loss_val = loss.item() if loss.materialized else None
                self.engine.step()
                self.step += 1
                self._steps_into_epoch += 1
                if tracer is not None:
                    tracer.annotate(
                        tctx.rank, "step", f"step{self.step}",
                        t0, tctx.clock.time, epoch=self.epoch,
                    )
                    tracer.sample_memory(
                        tctx.rank, tctx.device, tctx.clock.time
                    )
                self._fire("after_step", loss_val)
                self._maybe_checkpoint()
            self._fire("on_epoch_end")
        self._fire("on_fit_end")
        return self.history

    def evaluate(
        self, dataloader: Iterable, metric_fn: Callable[[Any, Any], None]
    ) -> None:
        """Run inference over a dataloader, feeding (output, label) to
        ``metric_fn``: ``output`` is this rank's output, ``label`` the
        loader's global labels, so under data parallelism ``metric_fn``
        shards the labels itself."""
        from repro.autograd.function import no_grad

        self.engine.eval()
        with no_grad():
            for data, label in dataloader:
                x = self.shard_input(data)
                if not isinstance(x, Tensor):
                    x = Tensor(x)
                output = self.engine(x)
                metric_fn(output, label)
