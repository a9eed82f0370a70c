"""Activation checkpointing (Chen et al. [7] in the paper).

``checkpoint(fn, *inputs)`` runs ``fn`` under ``no_grad`` in the forward
pass — so none of its internal activations are saved — and re-executes it
with gradients enabled during backward to reconstruct them.  Memory drops
from O(activations of fn) to O(inputs + outputs); compute grows by one
extra forward, which the simulated clock charges automatically because the
recomputation re-runs the ops.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.autograd.function import FnCtx, Function, no_grad
from repro.autograd.engine import backward as run_backward
from repro.comm.payload import Payload
from repro.tensor.tensor import Tensor


class _Checkpoint(Function):
    @staticmethod
    def forward(ctx: FnCtx, fn: Callable, *inputs: Tensor) -> Payload:
        ctx.fn = fn
        ctx.save_for_backward(*inputs)
        with no_grad():
            out = fn(*inputs)
        if isinstance(out, tuple):
            raise NotImplementedError("checkpoint supports single-output functions")
        # ctx.flops stays 0: the inner ops charged themselves
        return out.payload

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        fn = ctx.fn
        inputs = ctx.saved_tensors
        # re-attach fresh leaves so the recomputed graph stops at the inputs
        detached = []
        for t in inputs:
            d = t.detach()
            d.requires_grad = t.requires_grad
            detached.append(d)
        out = fn(*detached)
        run_backward(out, Tensor(g, device=out.device))
        return tuple(
            (d.grad.payload if d.grad is not None else None) for d in detached
        )


def checkpoint(fn: Callable, *inputs: Tensor) -> Tensor:
    """Apply ``fn(*inputs)`` with activation checkpointing."""
    return _Checkpoint.apply(fn, *inputs)
