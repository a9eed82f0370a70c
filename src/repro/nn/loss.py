"""Loss modules."""

from __future__ import annotations

from repro.autograd import ops
from repro.nn.module import Module
from repro.tensor.tensor import Tensor


class CrossEntropyLoss(Module):
    """Mean softmax cross-entropy over integer class targets.

    Accepts logits of shape [N, C] or [B, S, C] (flattened internally).
    """

    def __init__(self) -> None:
        super().__init__()

    def forward(self, logits: Tensor, targets) -> Tensor:
        if logits.ndim == 3:
            b, s, c = logits.shape
            logits = ops.reshape(logits, (b * s, c))
            if isinstance(targets, Tensor):
                targets = targets.payload
            else:
                import numpy as np

                targets = np.asarray(targets)
            if hasattr(targets, "reshape"):
                targets = targets.reshape(-1)
        return ops.cross_entropy(logits, targets)

