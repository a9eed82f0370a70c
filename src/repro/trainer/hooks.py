"""Trainer lifecycle hooks.

Users customize training at well-defined points (the paper's §4: "define
their own training schedule and hooks at the operator or trainer level")
by subclassing :class:`Hook` and registering with the Trainer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.trainer.metric import AverageMeter
from repro.utils.logging import get_logger

logger = get_logger("trainer")


class Hook:
    """Override any subset of the lifecycle methods."""

    priority = 10  # lower runs earlier

    def on_fit_start(self, trainer) -> None: ...

    def on_fit_end(self, trainer) -> None: ...

    def on_epoch_start(self, trainer) -> None: ...

    def on_epoch_end(self, trainer) -> None: ...

    def before_step(self, trainer) -> None: ...

    def after_step(self, trainer, loss) -> None: ...


class LossLoggingHook(Hook):
    def __init__(self, every: int = 50) -> None:
        self.every = every
        self.meter = AverageMeter()

    def after_step(self, trainer, loss) -> None:
        if loss is not None:
            self.meter.update(float(loss))
        if trainer.step % self.every == 0 and self.meter.count:
            trainer.history.setdefault("loss", []).append(self.meter.avg)
            logger.info("step %d loss %.4f", trainer.step, self.meter.avg)
            self.meter.reset()


class LRSchedulerHook(Hook):
    """Steps ``scheduler`` after every training step.  A fit resumed from a
    checkpoint first moves the schedule to the trainer's restored step, so
    it continues where the checkpoint left it."""

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler

    def on_fit_start(self, trainer) -> None:
        if trainer.step:
            self.scheduler.last_step = trainer.step - 1
            self.scheduler.step()

    def after_step(self, trainer, loss) -> None:
        self.scheduler.step()


class ThroughputHook(Hook):
    """Records simulated samples/second per epoch (the paper's img/sec)."""

    def __init__(self, samples_per_step: int) -> None:
        self.samples_per_step = samples_per_step
        self._t0: Optional[float] = None
        self._steps = 0

    def on_epoch_start(self, trainer) -> None:
        self._t0 = trainer.sim_time()
        self._steps = 0

    def after_step(self, trainer, loss) -> None:
        self._steps += 1

    def on_epoch_end(self, trainer) -> None:
        dt = trainer.sim_time() - (self._t0 or 0.0)
        if dt > 0 and self._steps:
            trainer.history.setdefault("throughput", []).append(
                self.samples_per_step * self._steps / dt
            )
