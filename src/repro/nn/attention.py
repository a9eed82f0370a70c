"""The attention core: scaled dot-product attention over per-head tensors.

The quadratic-in-sequence-length memory of the score matrix here is exactly
the "non-model data" bottleneck sequence parallelism attacks (§2.3); the
ring variant lives in :mod:`repro.parallel.sequence`.  The module that
calls it is :class:`repro.nn.transformer.MultiHeadAttention`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.autograd import ops
from repro.comm.payload import SpecArray, is_spec
from repro.tensor.tensor import Tensor


def causal_mask_payload(seq: int, dtype, spec: bool):
    """Additive attention mask: 0 on/below the diagonal, -inf above."""
    if spec:
        return SpecArray((seq, seq), dtype)
    # keep the "minus infinity" representable: float16 tops out at ~6.5e4
    neg = -1e4 if np.dtype(dtype).itemsize < 4 else -1e9
    mask = np.triu(np.full((seq, seq), neg, dtype=np.dtype(dtype)), k=1)
    return mask


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """[B, S, H] -> [B, n_heads, S, H/n_heads]."""
    b, s, h = x.payload.shape
    x = ops.reshape(x, (b, s, n_heads, h // n_heads))
    return ops.transpose(x, (0, 2, 1, 3))


def merge_heads(x: Tensor) -> Tensor:
    """[B, n_heads, S, d] -> [B, S, n_heads*d]."""
    b, nh, s, d = x.payload.shape
    x = ops.transpose(x, (0, 2, 1, 3))
    return ops.reshape(x, (b, s, nh * d))


def attention_core(
    q: Tensor, k: Tensor, v: Tensor, causal: bool = False, dropout_p: float = 0.0,
    training: bool = True,
) -> Tensor:
    """Scaled dot-product attention over [B, nh, S, d] tensors."""
    d = q.payload.shape[-1]
    # scale q, not the scores: the scores buffer is the largest activation
    # in the layer ([B, nh, S, S]); scaling it would double its footprint
    q = ops.mul(q, 1.0 / math.sqrt(d))
    scores = ops.matmul(q, ops.swapaxes(k, -1, -2))
    if causal:
        p = q.payload
        mask = Tensor(
            causal_mask_payload(p.shape[-2], p.dtype, is_spec(p)), device=q.device
        )
        scores = ops.add(scores, mask)
    probs = ops.softmax(scores, axis=-1)
    if dropout_p > 0.0:
        probs = ops.dropout(probs, dropout_p, training=training)
    return ops.matmul(probs, v)
