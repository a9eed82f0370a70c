"""Sequence parallelism with Ring Self-Attention — Li et al. [21], §2.3.

The model is replicated (like data parallelism) but the *sequence* dimension
of the input is split across ranks, breaking the memory wall of the
quadratic attention score matrix: each rank only ever materializes
``[B, heads, S/p, S]`` scores and ``S/p``-length activations.

The attention core is rebuilt from two ring primitives:

* :class:`RingQK` — scores ``Q_local @ K_r^T`` for every ring position r;
  K blocks rotate around the ring (p-1 ``ring_pass`` steps).
* :class:`RingAV` — ``sum_r P_r @ V_r`` with V blocks rotating.

Backward replays the rings for the rotating operand's gradient and uses an
all-to-all to return each rank's partial gradient for the blocks it
produced (``dK_r = sum_m dS_{m,r}^T Q_m`` is a reduction *to* rank r).

Everything else is the serial layer on a sub-sequence, which is what
:class:`ModeSequence` says: its linears, layer norms and embedding are the
serial ones with ``grad_sync_comms = [sequence group]`` on their parameters
— every rank saw only its tokens, so replicated-parameter gradients are
summed across the group after backward.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.autograd import ops
from repro.autograd.function import FnCtx, Function
from repro.autograd import payload_ops as P
from repro.comm.communicator import Communicator
from repro.comm.payload import Payload, SpecArray, is_spec
from repro.context.parallel_context import ParallelContext, ParallelMode
from repro.nn.mode import TensorMode
from repro.nn.module import Module, Parameter
from repro.parallel.comm_ops import mean_loss_across
from repro.parallel.common import shard_sections
from repro.tensor.sharding import shard_payload
from repro.tensor.tensor import Tensor


class RingQK(Function):
    """scores[B, nh, S/p, S] = Q_local @ K_global^T via ring rotation."""

    @staticmethod
    def forward(ctx: FnCtx, q: Tensor, k: Tensor, comm: Communicator) -> Payload:
        p = comm.size
        ctx.comm = comm
        ctx.save_for_backward(q, k)
        ctx.flops = p * P.matmul_flops(q.shape, P.pswapaxes(k.payload, -1, -2).shape)
        ctx.backward_flops = 2 * ctx.flops
        chunks: List[Optional[Payload]] = [None] * p
        cur = k.payload
        for t in range(p):
            src = (comm.rank - t) % p
            chunks[src] = P.pmatmul(q.payload, P.pswapaxes(cur, -1, -2))
            if t < p - 1:
                cur = comm.ring_pass(cur)
        return P.pconcat(chunks, axis=-1)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        q, k = ctx.saved_tensors
        comm = ctx.comm
        p = comm.size
        g_blocks = P.psplit(g, p, axis=-1)  # g_blocks[r] pairs with K_r
        # dQ = sum_r g_r @ K_r — replay the K ring
        dq: Optional[Payload] = None
        cur = k.payload
        for t in range(p):
            src = (comm.rank - t) % p
            part = P.pmatmul(g_blocks[src], cur)
            dq = part if dq is None else P.padd(dq, part)
            if t < p - 1:
                cur = comm.ring_pass(cur)
        # dK_r = sum_m g_{m,r}^T @ Q_m — all-to-all the partials, sum locally
        partials = [
            P.pmatmul(P.pswapaxes(g_blocks[r], -1, -2), q.payload) for r in range(p)
        ]
        received = comm.all_to_all(partials)
        dk: Optional[Payload] = None
        for part in received:
            dk = part if dk is None else P.padd(dk, part)
        return dq, dk


class RingAV(Function):
    """out[B, nh, S/p, d] = probs @ V_global via ring rotation of V."""

    @staticmethod
    def forward(ctx: FnCtx, probs: Tensor, v: Tensor, comm: Communicator) -> Payload:
        p = comm.size
        ctx.comm = comm
        ctx.save_for_backward(probs, v)
        p_blocks = P.psplit(probs.payload, p, axis=-1)
        ctx.flops = p * P.matmul_flops(p_blocks[0].shape, v.shape)
        ctx.backward_flops = 2 * ctx.flops
        out: Optional[Payload] = None
        cur = v.payload
        for t in range(p):
            src = (comm.rank - t) % p
            part = P.pmatmul(p_blocks[src], cur)
            out = part if out is None else P.padd(out, part)
            if t < p - 1:
                cur = comm.ring_pass(cur)
        return out

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        probs, v = ctx.saved_tensors
        comm = ctx.comm
        p = comm.size
        p_blocks = P.psplit(probs.payload, p, axis=-1)
        # dP_r = g @ V_r^T — replay the V ring
        chunks: List[Optional[Payload]] = [None] * p
        cur = v.payload
        for t in range(p):
            src = (comm.rank - t) % p
            chunks[src] = P.pmatmul(g, P.pswapaxes(cur, -1, -2))
            if t < p - 1:
                cur = comm.ring_pass(cur)
        dprobs = P.pconcat(chunks, axis=-1)
        # dV_r = sum_m P_{m,r}^T @ g_m — all-to-all partials
        partials = [P.pmatmul(P.pswapaxes(p_blocks[r], -1, -2), g) for r in range(p)]
        received = comm.all_to_all(partials)
        dv: Optional[Payload] = None
        for part in received:
            dv = part if dv is None else P.padd(dv, part)
        return dprobs, dv


class ModeSequence(TensorMode):
    """Sequence parallelism over ``comm``: the serial layer on this rank's
    [B, S/p, H] sub-sequence; only the attention core communicates (the
    rings), so there is no head-divisibility constraint."""

    name = "sequence"

    def __init__(self, comm: Communicator) -> None:
        self.comm = comm

    @classmethod
    def from_context(cls, pc: ParallelContext) -> "ModeSequence":
        return cls(pc.comm(ParallelMode.SEQUENCE))

    def _synced(self, module: Module) -> Module:
        for p in module.parameters():
            p.grad_sync_comms = [self.comm]
        return module

    def linear(self, *args, **kwargs) -> Module:
        return self._synced(super().linear(*args, **kwargs))

    def layer_norm(self, *args, **kwargs) -> Module:
        return self._synced(super().layer_norm(*args, **kwargs))

    def embedding(self, *args, **kwargs) -> Module:
        return self._synced(super().embedding(*args, **kwargs))

    def attention_core(self, q, k, v, causal=False, dropout_p=0.0, training=True) -> Tensor:
        # scale q, not the ring scores: the [B, nh, S/p, S] score buffer is
        # the layer's largest activation and must not be duplicated
        q = ops.mul(q, 1.0 / math.sqrt(q.shape[-1]))
        scores = RingQK.apply(q, k, self.comm)  # [B, nh, S/p, S]
        if causal:
            scores = ops.add(scores, Tensor(self._causal_mask(scores)))
        probs = ops.softmax(scores, axis=-1)
        if dropout_p > 0:
            probs = ops.dropout(probs, dropout_p, training=training)
        return RingAV.apply(probs, v, self.comm)  # [B, nh, S/p, d]

    def _causal_mask(self, scores: Tensor):
        """Additive causal mask for the local query block: query at local
        row i sits at global position rank*s_loc + i and may only attend
        to keys at global positions <= that."""
        s_loc, s_full = scores.shape[-2], scores.shape[-1]
        if is_spec(scores.payload):
            return SpecArray((s_loc, s_full), scores.dtype)
        offset = self.comm.rank * s_loc
        neg = -1e4 if scores.dtype.itemsize < 4 else -1e9
        q_pos = offset + np.arange(s_loc)[:, None]
        k_pos = np.arange(s_full)[None, :]
        return (k_pos > q_pos).astype(scores.dtype) * np.asarray(neg, dtype=scores.dtype)

    def shared_param(self, full) -> Parameter:
        # each rank owns its sub-sequence's positions: no replication
        return Parameter(shard_sections(full, -2, self.comm.size, self.comm.rank))

    def shard_input(self, x):
        """Global [B, S, ...] -> local [B, S/p, ...] along the sequence dim."""
        x = x if is_spec(x) else np.asarray(x)
        return shard_payload(x, 1, self.comm.size, self.comm.rank)

    shard_activation = shard_input

    def local_shape(self, batch, seq, hidden):
        return (batch, seq // self.comm.size, hidden)

    def cross_entropy(self, logits: Tensor, targets) -> Tensor:
        return mean_loss_across(super().cross_entropy(logits, targets), self.comm)

    def gather_output(self, out: Tensor):
        return self.comm.all_gather(out.payload, axis=1)
