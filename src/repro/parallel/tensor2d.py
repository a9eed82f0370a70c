"""2D tensor parallelism (SUMMA) — Xu et al. [39], §2.2 of the paper — and
the 2.5D extension of Wang et al. [36] that runs on the same grid.

Devices form a q x q grid (p = q^2).  Activations are sharded
``[B/q (grid row i), S, H/q (grid col j)]`` and weights ``[K/q (i), N/q (j)]``
— input, weight *and* output are all partitioned, which is the memory
advantage over 1D TP that Fig 8 measures.

The distributed matmul is SUMMA: q steps of (row-broadcast an A block,
column-broadcast a B block, accumulate a local product).  Communication is
confined to one row or one column of the grid — groups of size q = sqrt(p)
instead of p — which is the hardware-compatibility advantage on
partially-connected machines (System II, Fig 11b).

Total fwd+bwd wire volume is ``3(q-1)(S_X + S_W)`` — exactly Table 1's 2D
row; the Table 1 bench asserts the counters match this closed form.

2.5D: p = d * q^2 devices form ``d`` depth layers of q x q SUMMA grids.
Each depth layer runs standard 2D tensor parallelism on **its own slice of
the batch** (the ``S_X / d`` in Table 1's 2.5D row); weights are replicated
across depth, so their gradients are all-reduced over the DEP group after
backward — depth behaves like data parallelism wrapped around a 2D grid.
With ``d == 1`` this degenerates to plain 2D, as the paper notes.  So there
is one grid (:class:`ModeGrid`), one :class:`Linear2D` and one
:class:`LayerNorm2D`; under 2.5D their parameters carry
``grad_sync_comms = [depth group]`` and the engine (or
``sync_parameter_gradients``) applies the depth all-reduce before the
optimizer step.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.autograd.function import FnCtx, Function
from repro.autograd import payload_ops as P
from repro.comm.communicator import Communicator
from repro.comm.payload import Payload, is_spec
from repro.context.parallel_context import GRID_GROUPS, ParallelContext
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


class Summa2DMatMul(Function):
    """C = A @ B over the 2D grid.

    A (activations): rows sharded by grid row i, cols (K) by grid col j.
    B (weight):      rows (K) sharded by i, cols (N) by j.
    C:               rows by i, cols (N) by j — same layout as A.
    """

    @staticmethod
    def forward(
        ctx: FnCtx,
        a: Tensor,
        b: Tensor,
        row_comm: Communicator,
        col_comm: Communicator,
    ) -> Payload:
        q = row_comm.size
        i, j = col_comm.rank, row_comm.rank  # grid coordinates
        ctx.row_comm, ctx.col_comm = row_comm, col_comm
        ctx.save_for_backward(a, b)
        ctx.flops = q * P.matmul_flops(a.shape, b.shape)
        ctx.backward_flops = 2 * ctx.flops
        c: Optional[Payload] = None
        for t in range(q):
            a_t = row_comm.broadcast(a.payload if j == t else None, root=t)
            b_t = col_comm.broadcast(b.payload if i == t else None, root=t)
            part = P.pmatmul(a_t, b_t)
            c = part if c is None else P.padd(c, part)
        return c

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        a, b = ctx.saved_tensors
        row_comm, col_comm = ctx.row_comm, ctx.col_comm
        q = row_comm.size
        i, j = col_comm.rank, row_comm.rank
        # flatten leading dims of a for the weight gradient
        a2d = P.preshape(a.payload, (-1, a.shape[-1]))
        g2d = P.preshape(g, (-1, g.shape[-1]))

        da: Optional[Payload] = None
        for t in range(q):
            b_t = col_comm.broadcast(b.payload if i == t else None, root=t)
            part = P.pmatmul(g, P.pswapaxes(b_t, -1, -2))
            red = row_comm.reduce(part, root=t)
            if j == t:
                da = red
        db: Optional[Payload] = None
        for t in range(q):
            a_t = row_comm.broadcast(a2d if j == t else None, root=t)
            part = P.pmatmul(P.pswapaxes(a_t, -1, -2), g2d)
            red = col_comm.reduce(part, root=t)
            if i == t:
                db = red
        return da, db


class ModeGrid(TensorMode):
    """The SUMMA grid of this rank, for 2D and 2.5D alike: row and column
    groups of size ``q``, and under 2.5D the depth group (``dep``; ``None``
    in 2D, which is the one-layer case).

    Batch is sharded depth-first (dep major, grid row ``i`` minor), features
    by grid column ``j``; heads follow features.
    """

    def __init__(self, pc: ParallelContext) -> None:
        row, col, dep = GRID_GROUPS[pc.tensor_mode]
        self.name = pc.tensor_mode
        self.row, self.col = pc.comm(row), pc.comm(col)
        self.dep = None if dep is None else pc.comm(dep)
        self.q = pc.config.tensor.grid_dim
        self.batch_divisor = self.batch_divisor_of(pc.config.tensor)
        self.depth = self.batch_divisor // self.q
        self.dep_rank, self.row_rank, self.col_rank = pc.dep_rank, pc.row_rank, pc.col_rank
        #: groups the batch is sharded over, innermost first
        self.batch_comms = [self.col] if self.dep is None else [self.col, self.dep]

    @staticmethod
    def batch_divisor_of(tensor) -> int:
        return tensor.size // tensor.grid_dim  # depth * q

    def depth_synced(self, param: Parameter) -> Parameter:
        """Weights are replicated across depth: mark them for the summed
        gradient synchronization over the DEP group."""
        if self.dep is not None:
            param.grad_sync_comms = [self.dep]
        return param

    def linear(self, in_features, out_features, second=False, **kwargs) -> Module:
        return Linear2D(in_features, out_features, self, **kwargs)

    def layer_norm(self, hidden_size, dtype="float32", rng=None) -> Module:
        return LayerNorm2D(hidden_size, self, dtype=dtype, rng=rng)

    def local_heads(self, n_heads: int) -> int:
        if n_heads % self.q != 0:
            raise ValueError(
                f"{self.name.upper()} attention needs n_heads ({n_heads}) "
                f"divisible by q ({self.q})"
            )
        return n_heads // self.q

    def shared_param(self, full) -> Parameter:
        return self.depth_synced(Parameter(shard_sections(full, -1, self.q, self.col_rank)))

    def add_shared(self, x: Tensor, param: Parameter) -> Tensor:
        return add_shared(x, param, [self.col])

    def scatter_features(self, x: Tensor) -> Tensor:
        # feature dim joins the grid: scatter over the row group (col index j)
        return scatter_to_parallel_region(x, self.row, axis=-1)

    def shard_input(self, x):
        x = x if is_spec(x) else np.asarray(x)
        x = shard_payload(x, 0, self.depth, self.dep_rank)
        return shard_payload(x, 0, self.q, self.row_rank)

    def shard_activation(self, x):
        """Global [B, ..., H] -> local [B/(d*q) (dep,i), ..., H/q (j)]."""
        return shard_payload(self.shard_input(x), -1, self.q, self.col_rank)

    def local_shape(self, batch, seq, hidden):
        return (batch // self.batch_divisor, seq, hidden // self.q)

    def cross_entropy(self, logits: Tensor, targets) -> Tensor:
        return parallel_cross_entropy(logits, targets, self.row, self.batch_comms)

    def gather_output(self, out: Tensor):
        full = self.row.all_gather(out.payload, axis=-1)
        for comm in self.batch_comms:
            full = comm.all_gather(full, axis=0)
        return full


class Linear2D(Module):
    """Linear layer with SUMMA matmul on ``grid``; bias sharded by grid
    column and synchronized across grid rows.  Under 2.5D the matmul runs
    within this rank's depth layer and weight/bias are replicated across
    depth with summed gradient synchronization."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        grid: ModeGrid,
        bias: bool = True,
        weight_init: init_mod.InitFn = init_mod.lecun_normal(),
        dtype: Union[str, np.dtype] = "float32",
        rng: Optional[np.random.Generator] = None,
        sections: int = 1,
    ) -> None:
        super().__init__()
        q = grid.q
        if in_features % q or out_features % (q * sections):
            raise ValueError(
                f"Linear2D({in_features}, {out_features}) not divisible by grid dim {q}"
            )
        self.grid = grid
        full_w = init_mod.param_payload((in_features, out_features), weight_init, rng, dtype)
        w = shard_payload(full_w, 0, q, grid.row_rank)
        w = shard_sections(w, 1, q, grid.col_rank, sections)
        self.weight = grid.depth_synced(Parameter(w))
        if bias:
            full_b = init_mod.param_payload((out_features,), init_mod.zeros_init, rng, dtype)
            self.bias: Optional[Parameter] = grid.depth_synced(
                Parameter(shard_sections(full_b, 0, q, grid.col_rank, sections))
            )
        else:
            self.register_parameter("bias", None)

    def forward(self, x: Tensor) -> Tensor:
        grid = self.grid
        y = Summa2DMatMul.apply(x, self.weight, grid.row, grid.col)
        if self.bias is not None:
            # bias replicated across grid rows (i): sync its grad over COL group
            y = add_shared(y, self.bias, [grid.col])
        return y


class LayerNorm2D(Module):
    """LayerNorm over the j-sharded hidden dim; affine params are sharded by
    j, replicated over i (grads synced over the COL group)."""

    def __init__(
        self,
        normalized_size: int,
        grid: ModeGrid,
        eps: float = 1e-5,
        dtype: Union[str, np.dtype] = "float32",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.grid = grid
        self.eps = eps
        full_g = init_mod.param_payload((normalized_size,), init_mod.ones_init, rng, dtype)
        full_b = init_mod.param_payload((normalized_size,), init_mod.zeros_init, rng, dtype)
        self.gamma = grid.depth_synced(Parameter(shard_sections(full_g, 0, grid.q, grid.col_rank)))
        self.beta = grid.depth_synced(Parameter(shard_sections(full_b, 0, grid.q, grid.col_rank)))

    def forward(self, x: Tensor) -> Tensor:
        return parallel_layer_norm(
            x,
            self.gamma,
            self.beta,
            stats_comm=self.grid.row,
            grad_comms=[self.grid.col],
            eps=self.eps,
        )
