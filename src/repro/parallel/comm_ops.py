"""Differentiable communication operations.

Tensor parallelism is built from conjugate pairs: an op that communicates in
forward must perform the adjoint communication in backward.

==============================  ==============================
forward                         backward
==============================  ==============================
identity                        all-reduce        (Megatron "f")
all-reduce                      identity          (Megatron "g")
split along axis                all-gather
all-gather                      split
all-reduce mean of a scalar     scale by 1/p
==============================  ==============================

All of them work on materialized and spec payloads alike, and charge the
cost model through the underlying :class:`Communicator`.
"""

from __future__ import annotations

from typing import Optional

from repro.autograd.function import FnCtx, Function
from repro.autograd import payload_ops as P
from repro.comm.communicator import Communicator
from repro.comm.payload import Payload, is_spec
from repro.tensor.tensor import Tensor


class IdentityFwdAllReduceBwd(Function):
    """Megatron's ``f``: pass-through forward; all-reduce gradients in
    backward.  Placed where a replicated activation enters a
    tensor-parallel region."""

    IS_VIEW = True  # forward is a pass-through; no new buffer

    @staticmethod
    def forward(ctx: FnCtx, x: Tensor, comm: Communicator) -> Payload:
        ctx.comm = comm
        return x.payload

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        return (ctx.comm.all_reduce(g),)


class AllReduceFwdIdentityBwd(Function):
    """Megatron's ``g``: all-reduce forward; identity backward.  Placed
    where partial results leave a tensor-parallel region."""

    @staticmethod
    def forward(ctx: FnCtx, x: Tensor, comm: Communicator) -> Payload:
        return comm.all_reduce(x.payload)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        return (g,)


class SplitFwdAllGatherBwd(Function):
    """Scatter an activation along ``axis`` (keep this rank's chunk);
    gather gradients back in backward."""

    @staticmethod
    def forward(ctx: FnCtx, x: Tensor, comm: Communicator, axis: int) -> Payload:
        ctx.comm = comm
        ctx.axis = axis
        return P.psplit(x.payload, comm.size, axis)[comm.rank]

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        return (ctx.comm.all_gather(g, axis=ctx.axis),)


class AllGatherFwdSplitBwd(Function):
    """Gather chunks along ``axis``; in backward keep only the local
    gradient slice."""

    @staticmethod
    def forward(ctx: FnCtx, x: Tensor, comm: Communicator, axis: int) -> Payload:
        ctx.comm = comm
        ctx.axis = axis
        return comm.all_gather(x.payload, axis=axis)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        return (P.psplit(g, ctx.comm.size, ctx.axis)[ctx.comm.rank],)


class AllReduceMeanScalar(Function):
    """Average a per-rank scalar (e.g. the loss over a batch shard) across
    the group.  Backward scales by 1/p without communication: each rank's
    term appears once in the mean."""

    @staticmethod
    def forward(ctx: FnCtx, x: Tensor, comm: Communicator) -> Payload:
        ctx.scale = 1.0 / comm.size
        summed = comm.all_reduce(x.payload)
        if is_spec(summed):
            return summed
        return summed * ctx.scale

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        if is_spec(g):
            return (g,)
        return (g * ctx.scale,)


# -- dispatcher helpers -------------------------------------------------------


def copy_to_parallel_region(x: Tensor, comm: Communicator) -> Tensor:
    return IdentityFwdAllReduceBwd.apply(x, comm)


def reduce_from_parallel_region(x: Tensor, comm: Communicator) -> Tensor:
    return AllReduceFwdIdentityBwd.apply(x, comm)


def scatter_to_parallel_region(x: Tensor, comm: Communicator, axis: int) -> Tensor:
    return SplitFwdAllGatherBwd.apply(x, comm, axis)


def gather_from_parallel_region(x: Tensor, comm: Communicator, axis: int) -> Tensor:
    return AllGatherFwdSplitBwd.apply(x, comm, axis)


def mean_loss_across(x: Tensor, comm: Optional[Communicator]) -> Tensor:
    """Average a scalar loss across a batch-sharding group (no-op for
    ``None`` or singleton groups)."""
    if comm is None or comm.size == 1:
        return x
    return AllReduceMeanScalar.apply(x, comm)
