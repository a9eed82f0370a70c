"""Memory estimates in the paper's §1 terminology.

*Model data* = parameters + gradients + optimizer states; with Adam in
mixed precision this is 2 (fp16 param) + 2 (fp16 grad) + 4+4+4 (fp32
master, m, v) = **16 bytes per parameter** — the paper's "10B parameters
... more than 80 GB" arithmetic.

*Non-model data* = activations; for a Transformer layer these scale with
``b * s * h`` and, through the attention scores, with ``b * heads * s^2``
— the quadratic term sequence parallelism attacks.
"""

from __future__ import annotations


def transformer_param_count(
    n_layers: int, hidden: int, vocab: int = 0, seq_len: int = 0, mlp_ratio: int = 4
) -> int:
    """Parameters of an L-layer Transformer (+ optional embeddings/head)."""
    per_layer = (
        4 * hidden * hidden + 4 * hidden          # QKV + out proj (+biases)
        + 2 * mlp_ratio * hidden * hidden + (mlp_ratio + 1) * hidden  # MLP
        + 4 * hidden                               # 2 LayerNorms
    )
    emb = vocab * hidden + seq_len * hidden
    head = vocab * hidden
    return n_layers * per_layer + emb + head


def adam_model_data_bytes(
    n_params: int, param_bytes: int = 2, grad_bytes: int = 2, master: bool = True
) -> int:
    """Bytes of model data under (mixed-precision) Adam.

    fp16 params + fp16 grads + fp32 (master + m + v) = 16 B/param."""
    opt = (4 + 4 + 4) if master else (4 + 4)
    return n_params * (param_bytes + grad_bytes + opt)


def zero_partitioned_bytes(
    n_params: int,
    stage: int = 1,
    param_bytes: int = 2,
    grad_bytes: int = 2,
    master: bool = True,
) -> int:
    """Per-rank bytes of model data a ZeRO ``stage`` *partitions* across
    the data-parallel group (the remainder is replicated on every rank).

    Stage 1 shards optimizer states, stage 2 adds gradients, stage 3 adds
    the parameters themselves — the §1 decomposition of the 16 B/param
    model-data budget."""
    if stage not in (1, 2, 3):
        raise ValueError(f"ZeRO stage must be 1, 2 or 3, got {stage}")
    opt = (4 + 4 + 4) if master else (4 + 4)
    sharded = opt
    if stage >= 2:
        sharded += grad_bytes
    if stage >= 3:
        sharded += param_bytes
    return n_params * sharded


def model_data_bytes_per_rank(
    n_params: int,
    data: int = 1,
    zero_stage: int = 0,
    param_bytes: int = 2,
    grad_bytes: int = 2,
    master: bool = True,
) -> int:
    """Per-rank model-data bytes for ``n_params`` local parameters when a
    ZeRO ``zero_stage`` partitions part of the budget across a ``data``-wide
    data-parallel group.

    The partitionable slice (:func:`zero_partitioned_bytes`) shrinks to
    ``ceil(slice / data)`` per rank; the remainder is replicated on every
    rank.  ``zero_stage=0`` (or ``data=1``) returns the plain
    :func:`adam_model_data_bytes` budget."""
    full = adam_model_data_bytes(
        n_params, param_bytes=param_bytes, grad_bytes=grad_bytes, master=master
    )
    if zero_stage == 0 or data <= 1:
        return full
    sharded = zero_partitioned_bytes(
        n_params, stage=zero_stage, param_bytes=param_bytes,
        grad_bytes=grad_bytes, master=master,
    )
    return full - sharded + -(-sharded // data)  # ceil division


def project_peak_memory(peak_bytes, shards):
    """Project a captured per-rank peak to scale under re-sharding.

    ``shards`` is a sequence of ``(sharded_bytes, factor)`` pairs — for
    each scaled axis that partitions state, the captured per-rank bytes it
    shards and the axis widening factor.  Widening the axis ``k ×``
    shrinks that slice to ``ceil(sharded / k)``; everything else in the
    captured peak is replicated unchanged.  The sharded claims are clamped
    to the captured peak so an over-declared plan can never project
    negative memory."""
    peak = int(peak_bytes)
    projected = peak
    remaining = peak
    for sharded_bytes, factor in shards:
        sharded = min(int(sharded_bytes), remaining)
        if sharded <= 0 or factor <= 1:
            continue
        kept = -(-sharded // int(factor))  # ceil division
        projected -= sharded - kept
        remaining -= sharded
    return projected


def transformer_activation_bytes(
    batch: int,
    seq: int,
    hidden: int,
    n_heads: int,
    n_layers: int,
    mlp_ratio: int = 4,
    bytes_per_elem: int = 2,
    with_scores: bool = True,
    checkpoint: bool = False,
) -> int:
    """Rough per-step activation footprint.

    Each layer stores ~``(10 + 2*mlp_ratio) * b*s*h`` activation elements
    plus the attention probabilities ``2 * b * heads * s^2`` (scores +
    softmax output).  With activation checkpointing only the layer inputs
    (``b*s*h`` per layer) persist.
    """
    linear_terms = (10 + 2 * mlp_ratio) * batch * seq * hidden
    score_terms = 2 * batch * n_heads * seq * seq if with_scores else 0
    if checkpoint:
        return n_layers * batch * seq * hidden * bytes_per_elem
    return n_layers * (linear_terms + score_terms) * bytes_per_elem
