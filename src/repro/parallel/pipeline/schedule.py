"""Microbatch schedules: GPipe and 1F1B.

A schedule is data, :func:`pipeline_order`, walked by one executor
(:class:`PipelineSchedule`) and by the strategy compiler's scorer and
probe.  The executor splits the global batch into microbatches, runs the
stage module on each, moves activations/gradients over the PIPELINE
communicator, and returns the (microbatch-averaged) loss on the last stage.

The loss of each microbatch is scaled by ``1/num_microbatches`` before
backward so accumulated parameter gradients equal those of the equivalent
single large batch.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.autograd import ops
from repro.comm.payload import Payload, SpecArray, is_spec
from repro.config import PIPELINE_SCHEDULES
from repro.context.parallel_context import ParallelContext, ParallelMode
from repro.nn.module import Module
from repro.tensor.tensor import Tensor

Criterion = Callable[[Tensor, Any], Tensor]


@lru_cache(maxsize=1024)
def pipeline_order(
    kind: str, stage: int, stages: int, m: int
) -> Tuple[Tuple[str, int], ...]:
    """The steps ``stage`` of ``stages`` runs in one training step of ``m``
    microbatches: ``("F", mb)`` is a forward, ``("B", mb)`` a backward.

    * ``"gpipe"``: forwards ``0..m-1``, then backwards ``m-1..0``;
    * ``"1f1b"``: ``min(stages - stage - 1, m)`` warm-up forwards, then one
      forward and one backward in turn, then the remaining backwards, so
      at most ``stages - stage`` microbatches are in flight.

    Cached per key: a run asks for one order per pipeline rank."""
    if kind == "gpipe":
        return tuple([("F", mb) for mb in range(m)]
                     + [("B", mb) for mb in range(m - 1, -1, -1)])
    if kind != "1f1b":
        raise ValueError(
            f"unknown pipeline schedule {kind!r}; expected one of {PIPELINE_SCHEDULES}")
    warmup = min(stages - stage - 1, m)
    order = [("F", mb) for mb in range(warmup)]
    for mb in range(m - warmup):
        order += [("F", mb + warmup), ("B", mb)]
    order += [("B", mb) for mb in range(m - warmup, m)]
    return tuple(order)


@lru_cache(maxsize=1024)
def bubble_fraction(stages: int, m: int) -> float:
    """The idle share of a step under either :func:`pipeline_order`, with
    uniform per-microbatch costs and free hops (the tests walk the orders
    and get this float bit for bit).  Cached: the scorer reads it per
    candidate."""
    return (stages - 1) / (m + stages - 1)


def _split_micro(batch, m: int):
    """Split an array/SpecArray (or None) into m microbatches along axis 0."""
    if batch is None:
        return [None] * m
    spec = is_spec(batch)
    arr = batch if spec else np.asarray(batch)
    if arr.shape[0] % m != 0:
        raise ValueError(f"batch {arr.shape[0]} not divisible into {m} microbatches")
    if spec:
        return [SpecArray((arr.shape[0] // m,) + tuple(arr.shape[1:]), arr.dtype)
                for _ in range(m)]
    return [np.ascontiguousarray(c) for c in np.split(arr, m, axis=0)]


class PipelineSchedule:
    """The executor: walks the stage's :func:`pipeline_order` of the
    ``kind`` each subclass declares."""

    kind: str

    def __init__(self, pc: ParallelContext, num_microbatches: int) -> None:
        self.pc = pc
        self.num_microbatches = num_microbatches
        self.comm = pc.comm(ParallelMode.PIPELINE)
        self.stage = pc.pp_rank
        self.n_stages = pc.pipeline_size
        self.is_first = self.stage == 0
        self.is_last = self.stage == self.n_stages - 1
        runtime = self.comm.group.runtime
        self._tracer = runtime.tracer
        self._clock = runtime.clocks[self.comm.global_rank]
        # overlap mode: activation/gradient sends run on the sender's p2p
        # stream (isend) so the next microbatch's compute starts immediately;
        # handles are drained (max-joined) at the end of the step
        self._overlap = getattr(runtime, "comm_overlap", False) and self.n_stages > 1
        self._pending_sends: List[Any] = []

    def _recv(self, src_stage: int, tag) -> Payload:
        """Receive a stage boundary payload; the time this rank sits blocked
        (upstream still busy + wire time) is recorded as a ``bubble`` span."""
        if self._tracer is None:
            return self.comm.recv(src_stage, tag=tag)
        t0 = self._clock.time
        payload = self.comm.recv(src_stage, tag=tag)
        if self._clock.time > t0:
            self._tracer.annotate(
                self.comm.global_rank, "bubble", f"{tag[0]}_stall/mb{tag[1]}",
                t0, self._clock.time,
            )
        return payload

    def _send(self, payload: Payload, dst_stage: int, tag) -> None:
        if self._overlap:
            self._pending_sends.append(self.comm.isend(payload, dst_stage, tag=tag))
        else:
            self.comm.send(payload, dst_stage, tag=tag)

    def _drain_sends(self) -> None:
        """Wait outstanding stream sends (end of step): max-joins the stage
        clock to the last transfer so step time includes the wire."""
        for handle in self._pending_sends:
            handle.wait()
        self._pending_sends.clear()

    # -- per-microbatch work ---------------------------------------------------

    def _forward_micro(
        self,
        module: Module,
        mb: int,
        data_mb,
        target_mb,
        criterion: Optional[Criterion],
    ) -> Tuple[Optional[Tensor], Optional[Tensor], Optional[Tensor]]:
        """Returns (stage_input, stage_output, loss)."""
        t0 = self._clock.time
        if self.is_first:
            x = Tensor(data_mb) if not isinstance(data_mb, Tensor) else data_mb
        else:
            x = Tensor(self._recv(self.stage - 1, ("fwd", mb)), requires_grad=True)
        out = module(x)
        loss = None
        if self.is_last:
            if criterion is not None:
                loss = criterion(out, target_mb)
                loss = ops.mul(loss, 1.0 / self.num_microbatches)
        else:
            self._send(out.payload, self.stage + 1, ("fwd", mb))
        if self._tracer is not None:
            self._tracer.annotate(
                self.comm.global_rank, "pipeline", f"fwd/mb{mb}",
                t0, self._clock.time, stage=self.stage,
            )
        return x, out, loss

    def _backward_micro(
        self, mb: int, x: Optional[Tensor], out: Tensor, loss: Optional[Tensor]
    ) -> Optional[float]:
        t0 = self._clock.time
        if self.is_last:
            if loss is None:
                raise RuntimeError("last stage needs a criterion to run backward")
            loss.backward()
        else:
            out.backward(Tensor(self._recv(self.stage + 1, ("bwd", mb))))
        if not self.is_first and x is not None:
            if x.grad is None:
                raise RuntimeError("no gradient flowed to the stage input")
            self._send(x.grad.payload, self.stage - 1, ("bwd", mb))
        if self._tracer is not None:
            self._tracer.annotate(
                self.comm.global_rank, "pipeline", f"bwd/mb{mb}",
                t0, self._clock.time, stage=self.stage,
            )
        return loss.item() if loss is not None and loss.materialized else None

    def run(
        self,
        module: Module,
        data,
        targets=None,
        criterion: Optional[Criterion] = None,
    ) -> Optional[float]:
        m = self.num_microbatches
        data_mbs = _split_micro(data, m) if self.is_first else [None] * m
        target_mbs = _split_micro(targets, m) if self.is_last else [None] * m
        states = {}  # mb -> (input, output, loss), freed at its backward
        total = 0.0
        have_loss = False
        for step, mb in pipeline_order(self.kind, self.stage, self.n_stages, m):
            if step == "F":
                states[mb] = self._forward_micro(
                    module, mb, data_mbs[mb], target_mbs[mb], criterion)
                continue
            loss = self._backward_micro(mb, *states.pop(mb))
            if loss is not None:
                total += loss
                have_loss = True
        self._drain_sends()
        return total if have_loss else None


class GPipeSchedule(PipelineSchedule):
    """All microbatch forwards, then all backwards (Huang et al. [16]).

    Peak activation memory grows with the number of in-flight microbatches.
    """

    kind = "gpipe"


class OneFOneBSchedule(PipelineSchedule):
    """1F1B (PipeDream-flush, Narayanan et al. [25]).

    Same bubble as GPipe but peak activations bounded by the number of
    warm-up microbatches (at most the stage count) instead of all of them.
    """

    kind = "1f1b"


#: the executor class of each ``config.pipeline_schedule`` value
SCHEDULES = {cls.kind: cls for cls in (GPipeSchedule, OneFOneBSchedule)}
