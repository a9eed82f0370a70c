"""Core layers: Linear, LayerNorm, Embedding, Dropout, and ``patchify``.

Linear weights use the ``[in_features, out_features]`` convention so that
forward is ``y = x @ W + b`` — this keeps the SUMMA/3D distributed matmul
code direct (no transposes hidden in layer code).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.autograd import ops
from repro.nn import init as init_mod
from repro.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor


class Linear(Module):
    """Affine map ``y = x @ W + b`` with W of shape [in, out]."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        weight_init: init_mod.InitFn = init_mod.xavier_uniform(),
        dtype: Union[str, np.dtype] = "float32",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init_mod.param_payload((in_features, out_features), weight_init, rng, dtype)
        )
        if bias:
            self.bias: Optional[Parameter] = Parameter(
                init_mod.param_payload((out_features,), init_mod.zeros_init, rng, dtype)
            )
        else:
            self.register_parameter("bias", None)

    def forward(self, x: Tensor) -> Tensor:
        y = ops.matmul(x, self.weight)
        if self.bias is not None:
            y = ops.add(y, self.bias)
        return y


class LayerNorm(Module):
    def __init__(
        self,
        normalized_size: int,
        eps: float = 1e-5,
        dtype: Union[str, np.dtype] = "float32",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(
            init_mod.param_payload((normalized_size,), init_mod.ones_init, rng, dtype)
        )
        self.beta = Parameter(
            init_mod.param_payload((normalized_size,), init_mod.zeros_init, rng, dtype)
        )

    def forward(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.gamma, self.beta, self.eps)


class Embedding(Module):
    """Token embedding: int ids -> vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        weight_init: init_mod.InitFn = init_mod.normal(0.02),
        dtype: Union[str, np.dtype] = "float32",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            init_mod.param_payload((num_embeddings, embedding_dim), weight_init, rng, dtype)
        )

    def forward(self, indices) -> Tensor:
        return ops.embedding(self.weight, indices)


class Dropout(Module):
    def __init__(self, p: float = 0.1) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        return ops.dropout(x, self.p, training=self.training)


def patchify(images: Tensor, patch: int) -> Tensor:
    """[B, H, W, C] -> [B, N, patch*patch*C]."""
    b, h, w, c = images.shape
    # [B, H/p, p, W/p, p, C] -> [B, H/p, W/p, p, p, C] -> [B, N, p*p*C]
    x = ops.reshape(images, (b, h // patch, patch, w // patch, patch, c))
    x = ops.transpose(x, (0, 1, 3, 2, 4, 5))
    return ops.reshape(x, (b, (h // patch) * (w // patch), patch * patch * c))
