"""3D tensor parallelism — Bian et al. [4], §2.2 of the paper.

p = l^3 devices form a cube with axes (i, j, k).  Following the paper, a
tensor of shape [P, Q] is partitioned into chunks [P/l^2, Q/l]: the batch
dimension is split twice (over i and over one of j/k) and the feature
dimension once (over the remaining axis).

The distributed matmul is the Agarwal 3D algorithm, expressed with three
collectives::

    forward:   A  = all_gather(X  over cx)       # recover batch sub-shard
               B  = all_gather(W  over cw)       # recover weight row shard
               Cp = A @ B                        # partial over rs axis
               C  = reduce_scatter(Cp over cc)   # sum partials + re-shard batch

    backward:  dC = all_gather(g over cc)
               dX = reduce_scatter(dC @ B^T over cx)
               dW = reduce_scatter(A^T @ dC over cw)

Each collective involves only ``l = p^(1/3)`` ranks — the smallest groups of
any TP mode, which is why 3D wins at large scale (Table 3, 64 GPUs).

Activation layouts alternate between consecutive linears: a linear that
consumes features sharded by j produces features sharded by k and vice
versa (the reduce-scatter re-shards the batch along the axis the input
features were gathered from).  :class:`Layout3D` tracks this; a Transformer
layer is layout-closed (QKV: j->k, out/dense2: k->j).  :class:`Mode3D` is a
layout bound to this rank's cube: its second linear of a pair takes the
flipped layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.autograd.function import FnCtx, Function
from repro.autograd import payload_ops as P
from repro.comm.communicator import Communicator
from repro.comm.payload import Payload, is_spec
from repro.context.parallel_context import ParallelContext, ParallelMode
from repro.nn import init as init_mod
from repro.nn.mode import TensorMode
from repro.nn.module import Module, Parameter
from repro.parallel.comm_ops import scatter_to_parallel_region
from repro.parallel.common import (
    add_shared,
    parallel_cross_entropy,
    parallel_layer_norm,
    shard_sections,
)
from repro.tensor.sharding import shard_payload
from repro.tensor.tensor import Tensor


@dataclass(frozen=True)
class Layout3D:
    """Which cube axes shard the activation: features by ``feature_mode``,
    batch by OUTPUT (i) and by ``batch_sub_mode``."""

    feature_mode: ParallelMode
    batch_sub_mode: ParallelMode

    def flipped(self) -> "Layout3D":
        return Layout3D(self.batch_sub_mode, self.feature_mode)


#: canonical entry layout: features sharded by WEIGHT (j), batch by i then k
LAYOUT_JK = Layout3D(ParallelMode.PARALLEL_3D_WEIGHT, ParallelMode.PARALLEL_3D_INPUT)
LAYOUT_KJ = LAYOUT_JK.flipped()


class Matmul3D(Function):
    """C = X @ W with the collective pattern described in the module
    docstring.  ``cx`` gathers X's batch sub-shard, ``cw`` gathers W's row
    sub-shard, ``cc`` reduce-scatters the output partials."""

    @staticmethod
    def forward(
        ctx: FnCtx,
        x: Tensor,
        w: Tensor,
        cx: Communicator,
        cw: Communicator,
        cc: Communicator,
    ) -> Payload:
        ctx.cx, ctx.cw, ctx.cc = cx, cw, cc
        a = cx.all_gather(x.payload, axis=0)
        b = cw.all_gather(w.payload, axis=0)
        ctx.a, ctx.b = a, b
        ctx.x_shape, ctx.w_shape = x.shape, w.shape
        ctx.flops = P.matmul_flops(a.shape, b.shape)
        ctx.backward_flops = 2 * ctx.flops
        cp = P.pmatmul(a, b)
        return cc.reduce_scatter(cp, axis=0)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        a, b = ctx.a, ctx.b
        dcg = ctx.cc.all_gather(g, axis=0)
        dx_part = P.pmatmul(dcg, P.pswapaxes(b, -1, -2))
        dx = ctx.cx.reduce_scatter(dx_part, axis=0)
        a2d = P.preshape(a, (-1, a.shape[-1]))
        g2d = P.preshape(dcg, (-1, dcg.shape[-1]))
        dw_part = P.pmatmul(P.pswapaxes(a2d, -1, -2), g2d)
        dw = ctx.cw.reduce_scatter(dw_part, axis=0)
        return dx, dw


class Linear3D(Module):
    """3D-parallel linear.  Consumes activations in ``layout`` and produces
    them in ``layout.flipped()``.

    Weight chunk: rows (K) block index = in_feature_rank * l + i, cols (N)
    block = out_feature_rank (= the layout's batch_sub axis).  Bias is
    sharded by the output feature axis and replicated over (i, j_or_k);
    its gradient is synced over those groups.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        pc: ParallelContext,
        layout: Layout3D = LAYOUT_JK,
        bias: bool = True,
        weight_init: init_mod.InitFn = init_mod.lecun_normal(),
        dtype: Union[str, np.dtype] = "float32",
        rng: Optional[np.random.Generator] = None,
        sections: int = 1,
    ) -> None:
        super().__init__()
        l = pc.config.tensor.cube_dim
        if in_features % (l * l) or out_features % (l * sections):
            raise ValueError(
                f"Linear3D({in_features}, {out_features}) needs in % l^2 == 0 "
                f"and out % l == 0 (l={l})"
            )
        self.pc = pc
        self.layout = layout
        in_rank = pc.comm(layout.feature_mode).rank
        out_rank = pc.comm(layout.batch_sub_mode).rank
        full_w = init_mod.param_payload((in_features, out_features), weight_init, rng, dtype)
        w = shard_payload(full_w, 0, l, in_rank)
        w = shard_payload(w, 0, l, pc.cube_i)
        w = shard_sections(w, 1, l, out_rank, sections)
        self.weight = Parameter(w)
        if bias:
            full_b = init_mod.param_payload((out_features,), init_mod.zeros_init, rng, dtype)
            self.bias: Optional[Parameter] = Parameter(
                shard_sections(full_b, 0, l, out_rank, sections)
            )
        else:
            self.register_parameter("bias", None)

    def forward(self, x: Tensor) -> Tensor:
        pc = self.pc
        cx = pc.comm(self.layout.batch_sub_mode)
        cw = pc.comm(ParallelMode.PARALLEL_3D_OUTPUT)
        cc = pc.comm(self.layout.feature_mode)
        y = Matmul3D.apply(x, self.weight, cx, cw, cc)
        if self.bias is not None:
            # output batch is sharded over (i, feature_mode-axis): sync there
            y = add_shared(
                y, self.bias,
                [pc.comm(ParallelMode.PARALLEL_3D_OUTPUT), pc.comm(self.layout.feature_mode)],
            )
        return y


class LayerNorm3D(Module):
    """LayerNorm for activations in ``layout``: statistics all-reduced over
    the feature axis; affine params sharded by the feature axis and synced
    over the batch axes."""

    def __init__(
        self,
        normalized_size: int,
        pc: ParallelContext,
        layout: Layout3D = LAYOUT_JK,
        eps: float = 1e-5,
        dtype: Union[str, np.dtype] = "float32",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        l = pc.config.tensor.cube_dim
        self.pc = pc
        self.layout = layout
        self.eps = eps
        feat_rank = pc.comm(layout.feature_mode).rank
        full_g = init_mod.param_payload((normalized_size,), init_mod.ones_init, rng, dtype)
        full_b = init_mod.param_payload((normalized_size,), init_mod.zeros_init, rng, dtype)
        self.gamma = Parameter(shard_sections(full_g, 0, l, feat_rank))
        self.beta = Parameter(shard_sections(full_b, 0, l, feat_rank))

    def forward(self, x: Tensor) -> Tensor:
        pc = self.pc
        return parallel_layer_norm(
            x,
            self.gamma,
            self.beta,
            stats_comm=pc.comm(self.layout.feature_mode),
            grad_comms=[
                pc.comm(ParallelMode.PARALLEL_3D_OUTPUT),
                pc.comm(self.layout.batch_sub_mode),
            ],
            eps=self.eps,
        )


class Mode3D(TensorMode):
    """This rank's place in the cube with activations in ``layout``:
    features sharded over the layout's feature axis, batch blocks i-major
    then over its batch_sub axis; heads follow features.

    A linear consumes its layout and produces the flipped one, so the
    second linear of a pair is built on ``layout.flipped()`` and every pair
    — hence the Transformer layer — is layout-closed.  A model whose entry
    projection is a single linear runs its layers in :meth:`flipped`.
    """

    name = "3d"

    def __init__(self, pc: ParallelContext, layout: Layout3D = LAYOUT_JK) -> None:
        self.pc = pc
        self.layout = layout
        self.l = pc.config.tensor.cube_dim
        self.batch_divisor = self.batch_divisor_of(pc.config.tensor)
        self.feature = pc.comm(layout.feature_mode)
        self.batch_sub = pc.comm(layout.batch_sub_mode)
        self.output = pc.comm(ParallelMode.PARALLEL_3D_OUTPUT)

    @staticmethod
    def batch_divisor_of(tensor) -> int:
        return tensor.cube_dim**2

    def flipped(self) -> "Mode3D":
        return Mode3D(self.pc, self.layout.flipped())

    def linear(self, in_features, out_features, second=False, **kwargs) -> Module:
        layout = self.layout.flipped() if second else self.layout
        return Linear3D(in_features, out_features, self.pc, layout, **kwargs)

    def layer_norm(self, hidden_size, dtype="float32", rng=None) -> Module:
        return LayerNorm3D(hidden_size, self.pc, self.layout, dtype=dtype, rng=rng)

    def local_heads(self, n_heads: int) -> int:
        if n_heads % self.l != 0:
            raise ValueError(
                f"3D attention needs n_heads ({n_heads}) divisible by l ({self.l})"
            )
        return n_heads // self.l

    def shared_param(self, full) -> Parameter:
        return Parameter(shard_sections(full, -1, self.l, self.feature.rank))

    def add_shared(self, x: Tensor, param: Parameter) -> Tensor:
        return add_shared(x, param, [self.output, self.batch_sub])

    def scatter_features(self, x: Tensor) -> Tensor:
        return scatter_to_parallel_region(x, self.feature, axis=-1)

    def shard_input(self, x):
        x = x if is_spec(x) else np.asarray(x)
        x = shard_payload(x, 0, self.l, self.output.rank)
        return shard_payload(x, 0, self.l, self.batch_sub.rank)

    def shard_activation(self, x):
        """Global [B, ..., H] -> local [B/l^2, ..., H/l]."""
        return shard_payload(self.shard_input(x), -1, self.l, self.feature.rank)

    def local_shape(self, batch, seq, hidden):
        return (batch // self.batch_divisor, seq, hidden // self.l)

    def cross_entropy(self, logits: Tensor, targets) -> Tensor:
        return parallel_cross_entropy(
            logits, targets, self.feature, [self.output, self.batch_sub]
        )

    def gather_output(self, out: Tensor):
        full = self.feature.all_gather(out.payload, axis=-1)
        full = self.batch_sub.all_gather(full, axis=0)
        return self.output.all_gather(full, axis=0)
