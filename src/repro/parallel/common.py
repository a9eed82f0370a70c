"""Utilities shared by the tensor-parallel layers.

These handle the recurring problems of multi-dimensional TP:

* normalization over a feature dimension that is sharded (statistics need
  an all-reduce over the feature-sharding group),
* parameters that are *replicated* across batch-sharding groups (bias, pos
  embeddings, layernorm affine): their gradients must be summed over every
  group that shards the batch, or replicas would drift apart, and
* fused QKV weights, whose shard must stay head-aligned.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autograd.function import FnCtx, Function
from repro.autograd import ops
from repro.autograd import payload_ops as P
from repro.comm.communicator import Communicator
from repro.comm.payload import Payload, SpecArray, is_spec
from repro.tensor.sharding import shard_payload
from repro.tensor.tensor import Tensor


def shard_sections(payload: Payload, axis: int, parts: int, index: int, sections: int = 1) -> Payload:
    """A parameter's shard of ``payload`` along ``axis``, sharded per
    section (for fused QKV weights: each of the ``sections`` equal blocks is
    sharded independently so the local slice stays head-aligned).  The shard
    owns its bytes: an axis-0 shard of a materialized payload is a view,
    which would keep the whole payload alive as long as the parameter."""
    if sections == 1:
        shard = shard_payload(payload, axis, parts, index)
        if isinstance(shard, np.ndarray) and shard.base is not None:
            shard = shard.copy()
        return shard
    blocks = P.psplit(payload, sections, axis)
    shards = [shard_payload(b, axis, parts, index) for b in blocks]
    return P.pconcat(shards, axis)


def sync_parameter_gradients(module) -> None:
    """All-reduce (sum) gradients of parameters that declare
    ``grad_sync_comms`` — parameters replicated across a group whose members
    each saw only part of the batch/sequence (2.5D depth replication,
    sequence parallelism)."""
    for p in module.parameters():
        comms = getattr(p, "grad_sync_comms", [])
        if p.grad is None:
            continue
        for comm in comms:
            if comm.size > 1:
                p.grad.payload = comm.all_reduce(p.grad.payload)


class AddSharedParam(Function):
    """``x + param`` where ``param`` (bias / positional embedding) is
    replicated across the groups in ``sync_comms``; backward reduces the
    broadcast dims locally, then all-reduces the parameter gradient over
    each sync group so replicas receive the global sum."""

    @staticmethod
    def forward(ctx: FnCtx, x: Tensor, param: Tensor, sync_comms: Sequence[Communicator]) -> Payload:
        ctx.sync_comms = list(sync_comms)
        ctx.p_shape = param.shape
        ctx.flops = x.size
        return P.padd(x.payload, param.payload)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        dparam = P.unbroadcast(g, ctx.p_shape)
        for comm in ctx.sync_comms:
            if comm.size > 1:
                dparam = comm.all_reduce(dparam)
        return g, dparam


def add_shared(x: Tensor, param: Tensor, sync_comms: Sequence[Communicator]) -> Tensor:
    return AddSharedParam.apply(x, param, sync_comms)


class ParallelLayerNormFn(Function):
    """LayerNorm over a feature dim sharded across ``stats_comm``.

    Forward all-reduces (sum, sumsq) over the feature group; backward
    all-reduces the two per-row reduction terms of the dx formula over the
    same group, and the gamma/beta gradients over the batch-sharding groups
    in ``grad_comms``.
    """

    @staticmethod
    def forward(
        ctx: FnCtx,
        x: Tensor,
        gamma: Tensor,
        beta: Tensor,
        eps: float,
        stats_comm: Communicator,
        grad_comms: Sequence[Communicator],
    ) -> Payload:
        ctx.stats_comm = stats_comm
        ctx.grad_comms = list(grad_comms)
        ctx.flops = 8 * x.size
        h_local = x.shape[-1]
        h_global = h_local * stats_comm.size
        ctx.shapes = (x.shape, gamma.shape, beta.shape, x.dtype)
        if is_spec(x.payload):
            # cost-equivalent collectives on spec stats
            stats = SpecArray(x.shape[:-1] + (2,), x.dtype)
            stats_comm.all_reduce(stats)
            return x.payload.copy()
        local = np.stack(
            [np.sum(x.payload, axis=-1), np.sum(x.payload**2, axis=-1)], axis=-1
        )
        total = stats_comm.all_reduce(local)
        mean = total[..., 0:1] / h_global
        var = total[..., 1:2] / h_global - mean**2
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x.payload - mean) * inv
        ctx.xhat = xhat
        ctx.inv = inv
        ctx.gamma = gamma.payload
        ctx.h_global = h_global
        return xhat * gamma.payload + beta.payload

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        x_shape, g_shape, b_shape, dtype = ctx.shapes
        if is_spec(g):
            stats = SpecArray(tuple(x_shape[:-1]) + (2,), dtype)
            ctx.stats_comm.all_reduce(stats)
            dgamma = SpecArray(g_shape, dtype)
            dbeta = SpecArray(b_shape, dtype)
            for comm in ctx.grad_comms:
                if comm.size > 1:
                    dgamma = comm.all_reduce(dgamma)
                    dbeta = comm.all_reduce(dbeta)
            return SpecArray(x_shape, dtype), dgamma, dbeta
        xhat, inv, gamma = ctx.xhat, ctx.inv, ctx.gamma
        h = ctx.h_global
        reduce_axes = tuple(range(g.ndim - 1))
        dgamma = np.sum(g * xhat, axis=reduce_axes)
        dbeta = np.sum(g, axis=reduce_axes)
        for comm in ctx.grad_comms:
            if comm.size > 1:
                dgamma = comm.all_reduce(dgamma)
                dbeta = comm.all_reduce(dbeta)
        gx = g * gamma
        local = np.stack(
            [np.sum(gx, axis=-1), np.sum(gx * xhat, axis=-1)], axis=-1
        )
        total = ctx.stats_comm.all_reduce(local)
        mean_gx = total[..., 0:1] / h
        mean_gxxh = total[..., 1:2] / h
        dx = (gx - mean_gx - xhat * mean_gxxh) * inv
        return dx, dgamma, dbeta


def parallel_layer_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stats_comm: Communicator,
    grad_comms: Sequence[Communicator],
    eps: float = 1e-5,
) -> Tensor:
    return ParallelLayerNormFn.apply(x, gamma, beta, eps, stats_comm, grad_comms)


def parallel_cross_entropy(
    logits: Tensor,
    targets,
    gather_comm: Optional[Communicator],
    batch_comms: Sequence[Communicator],
) -> Tensor:
    """Cross-entropy when logits are sharded along classes and/or batch.

    Gathers the class dimension over ``gather_comm`` (split in backward),
    computes local CE over this rank's batch rows, then averages the scalar
    loss over every batch-sharding group so the result equals the serial
    global-batch mean.
    """
    from repro.parallel.comm_ops import gather_from_parallel_region, mean_loss_across

    if gather_comm is not None and gather_comm.size > 1:
        logits = gather_from_parallel_region(logits, gather_comm, axis=-1)
    loss = ops.cross_entropy(logits, targets)
    for comm in batch_comms:
        loss = mean_loss_across(loss, comm)
    return loss
