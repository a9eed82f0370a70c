"""Activation checkpointing (Chen et al. [7] in the paper).

``checkpoint(fn, *inputs)`` runs ``fn`` under ``no_grad`` in the forward
pass — so none of its internal activations are saved — and re-executes it
with gradients enabled during backward to reconstruct them.  Memory drops
from O(activations of fn) to O(inputs + outputs); compute grows by one
extra forward, which the simulated clock charges automatically because the
recomputation re-runs the ops.

The recompute must see the forward's randomness: a materialized forward
notes where the rank's RNG stood, and backward rewinds to that state for
the re-execution, then puts the stream back where it was — so a
checkpointed ``Dropout`` is differentiated under the mask it applied, and
later draws are the ones an uncheckpointed run would make.  Spec mode draws
nothing and skips all of it.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.autograd.function import FnCtx, Function, no_grad
from repro.autograd.engine import backward as run_backward
from repro.comm.payload import Payload, SpecArray
from repro.runtime.spmd import rank_context
from repro.tensor.tensor import Tensor


class _Checkpoint(Function):
    @staticmethod
    def forward(ctx: FnCtx, fn: Callable, *inputs: Tensor) -> Payload:
        ctx.fn = fn
        ctx.save_for_backward(*inputs)
        for t in inputs:
            if type(t.payload) is not SpecArray:  # real data: fn may draw
                rc = rank_context()
                if rc is not None:
                    ctx.rng_state = rc.rng.bit_generator.state
                break
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
        rng_state = getattr(ctx, "rng_state", None)
        if rng_state is None:
            out = fn(*detached)
        else:
            bits = rank_context().rng.bit_generator
            resume = bits.state
            bits.state = rng_state
            try:
                out = fn(*detached)
            finally:
                bits.state = resume
        run_backward(out, Tensor(g, device=out.device))
        return tuple(
            (d.grad.payload if d.grad is not None else None) for d in detached
        )


def checkpoint(fn: Callable, *inputs: Tensor) -> Tensor:
    """Apply ``fn(*inputs)`` with activation checkpointing."""
    return _Checkpoint.apply(fn, *inputs)
