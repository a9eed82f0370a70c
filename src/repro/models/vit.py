"""Vision Transformer, parallelized for every tensor-parallel mode.

The paper's §5.2 workhorse.  ``build_vit(cfg, pc)`` returns a
:class:`ModelBundle` whose loss matches the serial global-batch loss
exactly in every mode (parity-tested), so the Fig 7 convergence curves are
directly comparable.

Classification uses mean-pooling over patch tokens (a standard ViT variant)
instead of a CLS token: the pooled representation keeps the same sharding
layout as the tokens, so no mode needs extra communication at the head.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.autograd import ops
from repro.comm.payload import is_spec
from repro.context.parallel_context import ParallelContext, ParallelMode
from repro.models.common import EMBED, HEAD, LAYER0, NORM, POS, ModelBundle, crng, resolve_mode
from repro.nn import init as init_mod
from repro.nn.layers import patchify
from repro.nn.mode import SERIAL, TensorMode
from repro.nn.module import Module, Sequential
from repro.nn.transformer import TransformerLayer
from repro.parallel import tensor_mode
from repro.parallel.data import shard_batch
from repro.tensor.sharding import shard_payload
from repro.tensor.tensor import Tensor


@dataclass
class ViTConfig:
    image_size: int = 32
    patch_size: int = 4
    in_channels: int = 3
    hidden_size: int = 64
    n_layers: int = 2
    n_heads: int = 4
    n_classes: int = 10
    mlp_ratio: int = 4
    dropout: float = 0.0
    attn_dropout: float = 0.0
    dtype: str = "float32"
    seed: int = 7

    @property
    def n_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.in_channels


class ViT(Module):
    """The ViT, once, over ``mode``.

    Images enter batch-sharded with their patch features whole;
    ``scatter_features`` brings them into the mode's layout and the patch
    projection is one linear in it.  Everything after that — positional
    embedding, layers, final norm, head — lives in ``mode.flipped()``: a
    linear flips a 3D layout (images enter in LAYOUT_JK, the layers run in
    LAYOUT_KJ, the head flips back so logits leave in LAYOUT_JK: batch
    sharded by (i, k), classes by j) and leaves every other mode as it was.
    """

    MODES = ("serial", "data", "1d", "2d", "2.5d", "3d")

    def __init__(self, cfg: ViTConfig, mode: TensorMode = SERIAL) -> None:
        super().__init__()
        self.cfg = cfg
        self.mode = mode
        self.body = body = mode.flipped()
        self.patch_proj = mode.edge_linear(
            cfg.patch_dim, cfg.hidden_size, dtype=cfg.dtype, rng=crng(cfg.seed, EMBED)
        )
        self.pos_emb = body.shared_param(
            init_mod.param_payload(
                (cfg.n_patches, cfg.hidden_size), init_mod.normal(0.02),
                crng(cfg.seed, POS), cfg.dtype,
            )
        )
        self.layers = Sequential(
            [
                TransformerLayer(
                    cfg.hidden_size, cfg.n_heads, cfg.mlp_ratio,
                    attn_dropout=cfg.attn_dropout, dropout=cfg.dropout,
                    dtype=cfg.dtype, rng=crng(cfg.seed, LAYER0 + i), mode=body,
                )
                for i in range(cfg.n_layers)
            ]
        )
        self.norm = body.layer_norm(cfg.hidden_size, dtype=cfg.dtype, rng=crng(cfg.seed, NORM))
        self.head = body.edge_linear(
            cfg.hidden_size, cfg.n_classes, dtype=cfg.dtype, rng=crng(cfg.seed, HEAD)
        )

    def forward(self, images: Tensor) -> Tensor:
        x = patchify(images, self.cfg.patch_size)
        x = self.patch_proj(self.mode.scatter_features(x))
        x = self.body.add_shared(x, self.pos_emb)
        x = self.layers(x)
        x = self.norm(x)
        return self.head(ops.mean_(x, axis=1))


def build_vit(
    cfg: ViTConfig,
    pc: Optional[ParallelContext] = None,
    mode: Optional[str] = None,
) -> ModelBundle:
    """Build the ViT for the tensor mode of ``pc``; without one (no
    context, or tensor ``none``) it is the serial model — as ``"data"``
    under a context, with the batch sharded over the data group.  ``mode``
    in {serial, data, 1d, 2d, 2.5d, 3d} may restate that and is checked."""
    mode = resolve_mode("ViT", ViT.MODES, pc, mode, tensorless="data")
    tmode = tensor_mode(pc)
    bundle = ModelBundle.over(ViT(cfg, tmode), tmode, mode)
    if mode == "data" and pc is not None and pc.data_size > 1:
        dp_comm = pc.comm(ParallelMode.DATA)
        return dataclasses.replace(
            bundle,
            shard_input=lambda x: shard_batch(np.asarray(x), pc) if not is_spec(x) else shard_payload(x, 0, pc.data_size, pc.dp_rank),
            shard_target=lambda y: shard_batch(np.asarray(y), pc) if not is_spec(y) else y,
            gather_output=lambda out: dp_comm.all_gather(out.payload, axis=0),
        )
    return bundle
