"""The mode contract: what a Transformer layer — and the model around it —
asks of the parallel mode it runs in.

The paper's pitch (§3.1, §4) is that the parallel mode is a config field,
not a class name.  Here it is an object: :class:`repro.nn.TransformerLayer`,
``ViT`` and ``Bert`` are each written once over the questions below, and a
mode answers them — which linear, which layer norm, how many heads stay on
this rank, how the activation, the shared parameters and the loss are
sharded.  Every answer is given at construction, so no ``forward`` tests the
mode.

:class:`TensorMode` itself is the unsharded answer (:data:`SERIAL`); the
parallel modes in :mod:`repro.parallel` subclass it and override only what
they shard (DESIGN §4o lists what a new mode must provide).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.autograd import ops
from repro.nn import init as init_mod
from repro.nn.attention import attention_core
from repro.nn.layers import Embedding, LayerNorm, Linear
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor

_cross_entropy = CrossEntropyLoss()


class TensorMode:
    """Serial execution: nothing is sharded, nothing communicates."""

    name = "serial"
    #: ways the batch dim of an activation is split (a global batch must be
    #: a multiple of it)
    batch_divisor = 1

    @classmethod
    def from_context(cls, pc) -> "TensorMode":
        return cls(pc)

    @staticmethod
    def batch_divisor_of(tensor) -> int:
        """``batch_divisor`` from a ``TensorParallelConfig`` alone, for
        callers that size a batch before any rank exists."""
        return 1

    # -- the layer ----------------------------------------------------------

    def linear(
        self,
        in_features: int,
        out_features: int,
        second: bool = False,
        sections: int = 1,
        bias: bool = True,
        weight_init: init_mod.InitFn = init_mod.lecun_normal(),
        dtype: Union[str, np.dtype] = "float32",
        rng: Optional[np.random.Generator] = None,
    ) -> Module:
        """A linear of the layer.  Linears come in pairs (QKV -> out,
        dense_1 -> dense_2): ``second`` marks the one that consumes what the
        first produced.  ``sections`` equal column blocks (fused QKV) are
        sharded independently so a local slice stays head-aligned."""
        return Linear(
            in_features, out_features, bias=bias, weight_init=weight_init,
            dtype=dtype, rng=rng,
        )

    def layer_norm(self, hidden_size: int, dtype="float32", rng=None) -> Module:
        return LayerNorm(hidden_size, dtype=dtype, rng=rng)

    def local_heads(self, n_heads: int) -> int:
        """Attention heads computed on this rank."""
        return n_heads

    #: ``(q, k, v, causal, dropout_p, training)`` over [B, heads, S, d]
    attention_core = staticmethod(attention_core)

    # -- the model edge -----------------------------------------------------

    def flipped(self) -> "TensorMode":
        """The mode of the activation one linear later (3D alternates two
        layouts; everywhere else a linear returns what it was given)."""
        return self

    def edge_linear(self, in_features: int, out_features: int, **kwargs) -> Module:
        """A projection outside the layers (patch embedding, classifier)."""
        return self.linear(in_features, out_features, **kwargs)

    def lm_head(self, hidden_size: int, vocab_size: int, **kwargs) -> Module:
        return self.edge_linear(hidden_size, vocab_size, **kwargs)

    def embedding(self, vocab_size: int, hidden_size: int, dtype="float32", rng=None) -> Module:
        return Embedding(vocab_size, hidden_size, dtype=dtype, rng=rng)

    def vocab_parallel(self) -> "TensorMode":
        """The variant that keeps LM logits sharded along the vocabulary
        (only 1D shards them at all)."""
        return self

    def shared_param(self, full) -> Parameter:
        """This rank's part of a parameter added to every sample of the
        activation (positional embedding, [S, H])."""
        return Parameter(full)

    def add_shared(self, x: Tensor, param: Parameter) -> Tensor:
        return ops.add(x, param)

    def scatter_features(self, x: Tensor) -> Tensor:
        """Bring a batch-sharded input whose feature dim is still whole
        into the activation layout."""
        return x

    def shard_input(self, x):
        """This rank's slice of a global input or target ([B, S, ...])."""
        return x

    def shard_activation(self, x):
        """This rank's chunk of a global activation [B, ..., H]."""
        return x

    def local_shape(self, batch: int, seq: int, hidden: int) -> Tuple[int, int, int]:
        """Shape of ``shard_activation`` of a [batch, seq, hidden] tensor."""
        return (batch, seq, hidden)

    def cross_entropy(self, logits: Tensor, targets) -> Tensor:
        """Loss over local logits and targets, equal on every rank to the
        serial global-batch mean."""
        return _cross_entropy(logits, targets)

    def gather_output(self, out: Tensor):
        """Full logits as a payload (for metrics)."""
        return out.payload


#: the default mode of every layer and model
SERIAL = TensorMode()
