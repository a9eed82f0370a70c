"""1D (Megatron-LM) tensor parallelism — the paper's baseline TP (§2.2, Fig 4).

Weights are split along one dimension across the tensor group:

* :class:`ColumnParallelLinear` — W [in, out/p]; the input is replicated
  (``copy_to_parallel_region``) and outputs are partial columns.
* :class:`RowParallelLinear` — W [in/p, out]; inputs are already split
  along the feature dim and the partial products are summed with an
  all-reduce (``reduce_from_parallel_region``).

A Transformer layer uses column->row pairs for both MLP and attention, so
each layer costs 2 all-reduces forward and 2 backward over the *whole*
tensor group — the communication profile that Table 1's ``2(p-1)·S_X`` row
describes and that the advanced modes beat at scale.

Every layer draws the *global* weight from the shared model RNG stream and
keeps only its shard, which makes 1D-TP arithmetic identical to the serial
reference (tested bit-for-bit).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.autograd import ops
from repro.comm.communicator import Communicator
from repro.context.parallel_context import ParallelContext, ParallelMode
from repro.nn import init as init_mod
from repro.nn.mode import TensorMode
from repro.nn.module import Module, Parameter
from repro.nn.transformer import TransformerLayer
from repro.parallel.comm_ops import (
    copy_to_parallel_region,
    gather_from_parallel_region,
    reduce_from_parallel_region,
)
from repro.parallel.common import shard_sections
from repro.parallel.vocab_ce import vocab_parallel_cross_entropy
from repro.tensor.tensor import Tensor


class ColumnParallelLinear(Module):
    """Linear with output features split across the tensor group.

    With ``sections=3`` it is the fused QKV projection: each of the Q, K, V
    column blocks is split separately, so a rank's slice holds its heads'
    part of all three."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        comm: Communicator,
        bias: bool = True,
        gather_output: bool = False,
        weight_init: init_mod.InitFn = init_mod.lecun_normal(),
        dtype: Union[str, np.dtype] = "float32",
        rng: Optional[np.random.Generator] = None,
        sections: int = 1,
    ) -> None:
        super().__init__()
        if out_features % (comm.size * sections) != 0:
            raise ValueError(
                f"out_features {out_features} not divisible by tensor size {comm.size}"
            )
        self.comm = comm
        self.gather_output = gather_output
        full_w = init_mod.param_payload((in_features, out_features), weight_init, rng, dtype)
        self.weight = Parameter(shard_sections(full_w, 1, comm.size, comm.rank, sections))
        if bias:
            full_b = init_mod.param_payload((out_features,), init_mod.zeros_init, rng, dtype)
            self.bias: Optional[Parameter] = Parameter(
                shard_sections(full_b, 0, comm.size, comm.rank, sections)
            )
        else:
            self.register_parameter("bias", None)

    def forward(self, x: Tensor) -> Tensor:
        x = copy_to_parallel_region(x, self.comm)
        y = ops.matmul(x, self.weight)
        if self.bias is not None:
            y = ops.add(y, self.bias)
        if self.gather_output:
            y = gather_from_parallel_region(y, self.comm, axis=-1)
        return y


class RowParallelLinear(Module):
    """Linear with input features split across the tensor group (its input
    is the feature-split output of a column-parallel linear)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        comm: Communicator,
        bias: bool = True,
        weight_init: init_mod.InitFn = init_mod.lecun_normal(),
        dtype: Union[str, np.dtype] = "float32",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features % comm.size != 0:
            raise ValueError(
                f"in_features {in_features} not divisible by tensor size {comm.size}"
            )
        self.comm = comm
        full_w = init_mod.param_payload((in_features, out_features), weight_init, rng, dtype)
        self.weight = Parameter(shard_sections(full_w, 0, comm.size, comm.rank))
        if bias:
            # bias is replicated: it is added after the all-reduce
            self.bias: Optional[Parameter] = Parameter(
                init_mod.param_payload((out_features,), init_mod.zeros_init, rng, dtype)
            )
        else:
            self.register_parameter("bias", None)

    def forward(self, x: Tensor) -> Tensor:
        partial = ops.matmul(x, self.weight)
        y = reduce_from_parallel_region(partial, self.comm)
        if self.bias is not None:
            y = ops.add(y, self.bias)
        return y


class Mode1D(TensorMode):
    """1D tensor parallelism over the tensor group ``comm``.

    Both blocks of the layer are a column -> row pair (Fig 4: one
    all-reduce forward, one backward, each), with heads split across the
    group.  Everything else is the serial answer: LayerNorms, the
    positional embedding and the projections outside the layers are
    replicated (their inputs are identical on all tensor ranks after the
    row-parallel all-reduce), so activations, loss and logits are whole.
    """

    name = "1d"

    def __init__(self, comm: Communicator) -> None:
        self.comm = comm

    @classmethod
    def from_context(cls, pc: ParallelContext) -> "Mode1D":
        return cls(pc.comm(ParallelMode.TENSOR))

    def linear(self, in_features, out_features, second=False, sections=1, **kwargs) -> Module:
        if second:
            return RowParallelLinear(in_features, out_features, self.comm, **kwargs)
        return ColumnParallelLinear(
            in_features, out_features, self.comm, sections=sections, **kwargs
        )

    def local_heads(self, n_heads: int) -> int:
        """Requires ``n_heads % tensor_size == 0`` — the constraint the
        paper calls out when comparing against sequence parallelism
        (§5.3)."""
        p = self.comm.size
        if n_heads % p != 0:
            raise ValueError(
                f"1D tensor parallelism requires n_heads ({n_heads}) divisible "
                f"by the tensor parallel size ({p})"
            )
        return n_heads // p

    edge_linear = TensorMode.linear

    def embedding(self, vocab_size, hidden_size, dtype="float32", rng=None) -> Module:
        return VocabParallelEmbedding1D(vocab_size, hidden_size, self.comm, dtype=dtype, rng=rng)

    def lm_head(self, hidden_size, vocab_size, **kwargs) -> Module:
        return ColumnParallelLinear(
            hidden_size, vocab_size, self.comm, gather_output=True, **kwargs
        )

    def vocab_parallel(self) -> "Mode1D":
        return _VocabParallel1D(self.comm)


class _VocabParallel1D(Mode1D):
    """1D with the LM logits kept sharded along the vocabulary and the
    gather-free vocab-parallel cross-entropy — wire traffic O(tokens)
    instead of O(tokens*vocab)."""

    def lm_head(self, hidden_size, vocab_size, **kwargs) -> Module:
        return ColumnParallelLinear(hidden_size, vocab_size, self.comm, **kwargs)

    def cross_entropy(self, logits: Tensor, targets) -> Tensor:
        return vocab_parallel_cross_entropy(logits, targets, self.comm)

    def gather_output(self, out: Tensor):
        return self.comm.all_gather(out.payload, axis=-1)


def ParallelTransformerLayer1D(hidden_size, n_heads, comm, *args, **kwargs) -> TransformerLayer:
    """``TransformerLayer(..., mode=Mode1D(comm))`` under its old name."""
    return TransformerLayer(hidden_size, n_heads, *args, mode=Mode1D(comm), **kwargs)


class VocabParallelEmbedding1D(Module):
    """Token embedding with the vocabulary split across the tensor group.

    Each rank holds rows ``[rank*V/p, (rank+1)*V/p)``; out-of-shard lookups
    contribute zero and the partial embeddings are summed with an
    all-reduce.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        comm: Communicator,
        weight_init: init_mod.InitFn = init_mod.normal(0.02),
        dtype: Union[str, np.dtype] = "float32",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_embeddings % comm.size != 0:
            raise ValueError(
                f"vocab {num_embeddings} not divisible by tensor size {comm.size}"
            )
        self.comm = comm
        self.vocab_per_rank = num_embeddings // comm.size
        self.vocab_start = comm.rank * self.vocab_per_rank
        full = init_mod.param_payload(
            (num_embeddings, embedding_dim), weight_init, rng, dtype
        )
        self.weight = Parameter(shard_sections(full, 0, comm.size, comm.rank))

    def forward(self, indices) -> Tensor:
        if isinstance(indices, Tensor):
            indices = indices.payload
        from repro.comm.payload import is_spec as _is_spec

        if _is_spec(self.weight.payload) or _is_spec(indices):
            out = ops.embedding(self.weight, indices)
            return reduce_from_parallel_region(out, self.comm)
        idx = np.asarray(indices)
        in_shard = (idx >= self.vocab_start) & (idx < self.vocab_start + self.vocab_per_rank)
        local_idx = np.where(in_shard, idx - self.vocab_start, 0)
        emb = ops.embedding(self.weight, local_idx)
        mask = Tensor(in_shard.astype(self.weight.dtype)[..., None])
        emb = ops.mul(emb, mask)
        return reduce_from_parallel_region(emb, self.comm)
