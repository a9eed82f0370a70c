"""FLOP models for Transformer training and the analytic overlap term."""

from __future__ import annotations


def transformer_layer_flops(
    batch: int, seq: int, hidden: int, mlp_ratio: int = 4
) -> float:
    """Forward FLOPs of one layer: QKV/out projections (4 h^2 matmuls),
    attention score+context (2 s h matmuls), MLP (2 r h^2 matmuls)."""
    mm = 2.0 * batch * seq  # 2 flops per MAC, per token
    proj = mm * (4 * hidden * hidden)
    attn = mm * (2 * seq * hidden)
    mlp = mm * (2 * mlp_ratio * hidden * hidden)
    return proj + attn + mlp


def training_flops_per_token(n_params: int) -> float:
    """The standard ``6 * N`` rule: forward 2N, backward 4N."""
    return 6.0 * n_params


def overlap_exposed_seconds(
    comm_seconds: float, backward_compute_seconds: float
) -> float:
    """Exposed (non-hidden) communication time when gradient traffic is
    issued nonblocking from backward hooks: the part of ``comm_seconds``
    that does not fit behind the backward compute.

    This is the planning-side counterpart of the PR-5 overlap schedulers —
    the simulator proves overlap never *increases* step time, and this term
    gives the search a monotone analytic estimate of the benefit."""
    return max(float(comm_seconds) - max(backward_compute_seconds, 0.0), 0.0)
