"""Reverse-mode automatic differentiation over numpy.

The substrate replacing PyTorch autograd in this reproduction.  Ops operate
on payloads (ndarray or :class:`SpecArray`), so the same graph runs
materialized (exact numerics, used by parity and convergence tests) or in
spec mode (shape/byte/flop accounting only, used by the billion-parameter
experiments).  Every op charges its FLOPs to the calling rank's simulated
clock.
"""

from repro.autograd.function import (
    FnCtx,
    Function,
    grad_enabled,
    no_grad,
)
from repro.autograd.engine import backward
from repro.autograd import ops
from repro.autograd.checkpoint import checkpoint
from repro.autograd.grad_check import gradcheck

__all__ = [
    "FnCtx",
    "Function",
    "grad_enabled",
    "no_grad",
    "backward",
    "ops",
    "checkpoint",
    "gradcheck",
]
