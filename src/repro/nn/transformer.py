"""Transformer layer (Fig 2 of the paper): Multi-Head Attention block +
Feed Forward block, pre-norm residual wiring.

There is one of each.  What differs between serial, 1D, 2D, 2.5D, 3D and
sequence-parallel execution — which linear, which layer norm, how many
heads are local, which attention core — is asked of the ``mode`` object
(:mod:`repro.nn.mode`) once, at construction.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.autograd import ops
from repro.nn.attention import merge_heads, split_heads
from repro.nn.layers import Dropout
from repro.nn.mode import SERIAL, TensorMode
from repro.nn.module import Module
from repro.tensor.tensor import Tensor


class MultiHeadAttention(Module):
    """Standard MHA block: QKV projection, per-head attention, output proj.

    Under a parallel mode the QKV projection is sharded *per section* (each
    rank gets its heads' slice of Q, K and V), so attention runs on the
    local head subset with no communication beyond the projections' own;
    sequence parallelism keeps every head and swaps the core for the ring.
    """

    def __init__(
        self,
        hidden_size: int,
        n_heads: int,
        attn_dropout: float = 0.0,
        out_dropout: float = 0.0,
        causal: bool = False,
        dtype: Union[str, np.dtype] = "float32",
        rng: Optional[np.random.Generator] = None,
        mode: TensorMode = SERIAL,
    ) -> None:
        super().__init__()
        if hidden_size % n_heads != 0:
            raise ValueError(
                f"hidden size {hidden_size} not divisible by {n_heads} heads"
            )
        self.hidden_size = hidden_size
        self.n_heads = n_heads
        self.local_heads = mode.local_heads(n_heads)
        self.core = mode.attention_core
        self.causal = causal
        self.attn_dropout = attn_dropout
        self.qkv = mode.linear(
            hidden_size, 3 * hidden_size, sections=3, dtype=dtype, rng=rng
        )
        self.out = mode.linear(hidden_size, hidden_size, second=True, dtype=dtype, rng=rng)
        self.dropout = Dropout(out_dropout) if out_dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        qkv = self.qkv(x)  # [B, S, 3H] (locally: head-aligned sections)
        q, k, v = ops.split(qkv, 3, axis=-1)
        q = split_heads(q, self.local_heads)
        k = split_heads(k, self.local_heads)
        v = split_heads(v, self.local_heads)
        attn = self.core(
            q, k, v, causal=self.causal,
            dropout_p=self.attn_dropout, training=self.training,
        )
        y = self.out(merge_heads(attn))
        if self.dropout is not None:
            y = self.dropout(y)
        return y


class FeedForward(Module):
    """The MLP block: Linear(H -> r*H) + GELU + Linear(r*H -> H).

    This is the ``Y = W2 (gelu(W1 X))`` module of the paper's Fig 4 — the
    canonical target of tensor parallelism.
    """

    def __init__(
        self,
        hidden_size: int,
        mlp_ratio: int = 4,
        dropout: float = 0.0,
        dtype: Union[str, np.dtype] = "float32",
        rng: Optional[np.random.Generator] = None,
        mode: TensorMode = SERIAL,
    ) -> None:
        super().__init__()
        self.dense_1 = mode.linear(
            hidden_size, mlp_ratio * hidden_size, dtype=dtype, rng=rng
        )
        self.dense_2 = mode.linear(
            mlp_ratio * hidden_size, hidden_size, second=True, dtype=dtype, rng=rng
        )
        self.dropout = Dropout(dropout) if dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        h = ops.gelu(self.dense_1(x))
        h = self.dense_2(h)
        if self.dropout is not None:
            h = self.dropout(h)
        return h


class TransformerLayer(Module):
    """Pre-norm Transformer layer: x + MHA(LN(x)); x + FFN(LN(x))."""

    def __init__(
        self,
        hidden_size: int,
        n_heads: int,
        mlp_ratio: int = 4,
        attn_dropout: float = 0.0,
        dropout: float = 0.0,
        causal: bool = False,
        dtype: Union[str, np.dtype] = "float32",
        rng: Optional[np.random.Generator] = None,
        mode: TensorMode = SERIAL,
    ) -> None:
        super().__init__()
        self.norm_1 = mode.layer_norm(hidden_size, dtype=dtype, rng=rng)
        self.attention = MultiHeadAttention(
            hidden_size, n_heads,
            attn_dropout=attn_dropout, out_dropout=dropout, causal=causal,
            dtype=dtype, rng=rng, mode=mode,
        )
        self.norm_2 = mode.layer_norm(hidden_size, dtype=dtype, rng=rng)
        self.mlp = FeedForward(
            hidden_size, mlp_ratio, dropout=dropout, dtype=dtype, rng=rng, mode=mode
        )

    def forward(self, x: Tensor) -> Tensor:
        x = ops.add(x, self.attention(self.norm_1(x)))
        x = ops.add(x, self.mlp(self.norm_2(x)))
        return x
