"""Model-bundle plumbing shared by the zoo."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.context.parallel_context import ParallelContext
from repro.nn.mode import TensorMode
from repro.nn.module import Module
from repro.tensor.tensor import Tensor


#: per-component RNG ids, one table for the zoo: the input embedding (token
#: table or patch projection), the positional embedding, layer ``i`` at
#: ``LAYER0 + i``, the final norm and the head
EMBED, POS, LAYER0, NORM, HEAD = 0, 1, 2, 1000, 1001


def crng(seed: int, *component: int) -> np.random.Generator:
    """Deterministic per-component RNG: every parallel mode draws the same
    global weight for component ``(seed, *component)`` regardless of build
    order, then keeps its shard — the root of cross-mode parity."""
    return np.random.default_rng((0x5EED, seed) + tuple(component))


def resolve_mode(
    model: str,
    supported: Sequence[str],
    pc: Optional[ParallelContext],
    mode: Optional[str],
    tensorless: str = "serial",
) -> str:
    """The mode name a builder runs in.

    The context decides: its tensor mode, or ``tensorless`` where that is
    ``"none"`` (``"serial"`` with no context at all).  An explicit ``mode``
    is a checked redundancy, not a second source of truth — one that
    contradicts the context is an error here rather than a missing
    attribute inside a rank thread.
    """
    tensor = "none" if pc is None else pc.tensor_mode
    if mode is None:
        if tensor != "none":
            mode = tensor
        else:
            mode = "serial" if pc is None else tensorless
    if mode not in supported:
        raise ValueError(f"unknown {model} mode {mode!r}")
    if mode in ("serial", "data"):
        asked = "none"
    elif pc is None:
        raise ValueError(f"mode {mode!r} requires a ParallelContext")
    else:
        asked = mode
    if asked != tensor:
        raise ValueError(
            f"mode={mode!r} contradicts the ParallelContext, whose tensor "
            f"mode is {tensor!r}"
        )
    return mode


@dataclass
class ModelBundle:
    """A model plus the mode-specific glue the training loop needs.

    ``shard_input(global_batch)``   -> this rank's input payload
    ``shard_target(global_target)`` -> this rank's target slice
    ``loss_fn(output, local_target)`` -> scalar loss Tensor equal to the
    serial global-batch loss
    ``gather_output(output)``       -> full logits as numpy (for metrics)
    """

    model: Module
    shard_input: Callable[[Any], Any]
    shard_target: Callable[[Any], Any]
    loss_fn: Callable[[Tensor, Any], Tensor]
    gather_output: Callable[[Tensor], np.ndarray]
    mode: str = "serial"
    extra: dict = field(default_factory=dict)

    @classmethod
    def over(cls, model: Module, tmode: TensorMode, mode: str) -> "ModelBundle":
        """The glue is what ``tmode`` says about the model edge."""
        return cls(
            model=model,
            shard_input=tmode.shard_input,
            shard_target=tmode.shard_input,
            loss_fn=tmode.cross_entropy,
            gather_output=tmode.gather_output,
            mode=mode,
        )
