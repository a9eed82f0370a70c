"""GPT, built one pipeline stage at a time (§5.4 / Fig 14, §3.1 hybrid).

``build_gpt(cfg, pc)`` returns this rank's stage as one :class:`Sequential`:
the embedding block on the first pipeline stage, the stage's share of the
causal Transformer layers over the context's tensor mode, the head block on
the last stage.  Without a context it is the whole serial model, whose
modules — embedding, each layer, head — are exactly the blocks the
:class:`ZeroOffloadEngine` fetches, recomputes and reduce-scatters
(``build_gpt_blocks``).

Presets match the paper's workloads: GPT-2 scaled to 10B parameters and
OPT-13B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.analytic.memory_model import transformer_param_count
from repro.autograd import ops
from repro.context.parallel_context import ParallelContext
from repro.models.common import EMBED, HEAD, LAYER0, NORM, POS, crng, resolve_mode
from repro.nn import init as init_mod
from repro.nn.layers import Embedding, LayerNorm, Linear
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.transformer import TransformerLayer
from repro.parallel import tensor_mode
from repro.parallel.pipeline import partition_uniform
from repro.tensor.tensor import Tensor


@dataclass
class GPTConfig:
    vocab_size: int = 50257
    hidden_size: int = 1024
    n_layers: int = 24
    n_heads: int = 16
    seq_len: int = 1024
    mlp_ratio: int = 4
    dtype: str = "float16"
    seed: int = 17

    def param_count(self) -> int:
        """Parameters of the built model: the layers, embeddings and head,
        plus the final norm's ``2h``."""
        return transformer_param_count(
            self.n_layers, self.hidden_size, self.vocab_size, self.seq_len, self.mlp_ratio
        ) + 2 * self.hidden_size


class GPTEmbeddingBlock(Module):
    def __init__(self, cfg: GPTConfig) -> None:
        super().__init__()
        self.token_emb = Embedding(
            cfg.vocab_size, cfg.hidden_size, dtype=cfg.dtype, rng=crng(cfg.seed, EMBED)
        )
        self.pos_emb = Parameter(
            init_mod.param_payload(
                (cfg.seq_len, cfg.hidden_size), init_mod.normal(0.02),
                crng(cfg.seed, POS), cfg.dtype,
            )
        )

    def forward(self, token_ids) -> Tensor:
        x = self.token_emb(token_ids)
        return ops.add(x, self.pos_emb)


class GPTHeadBlock(Module):
    def __init__(self, cfg: GPTConfig) -> None:
        super().__init__()
        self.norm = LayerNorm(cfg.hidden_size, dtype=cfg.dtype, rng=crng(cfg.seed, NORM))
        self.head = Linear(
            cfg.hidden_size, cfg.vocab_size, bias=False,
            weight_init=init_mod.lecun_normal(), dtype=cfg.dtype,
            rng=crng(cfg.seed, HEAD),
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.norm(x))


def build_gpt(cfg: GPTConfig, pc: Optional[ParallelContext] = None) -> Sequential:
    """This rank's pipeline stage of GPT (no context: the serial model).

    The layers are ``partition_uniform``'s range for the stage, built over
    the context's tensor mode (serial or 1D); the embedding and head blocks
    are whole on every tensor rank, which is what a 1D layer takes and
    returns."""
    resolve_mode("GPT", ("serial", "1d"), pc, None)
    tmode = tensor_mode(pc)
    stages, stage = (1, 0) if pc is None else (pc.pipeline_size, pc.pp_rank)
    s, e = partition_uniform(cfg.n_layers, stages)[stage]
    blocks: List[Module] = [GPTEmbeddingBlock(cfg)] if stage == 0 else []
    blocks += [
        TransformerLayer(
            cfg.hidden_size, cfg.n_heads, cfg.mlp_ratio, causal=True,
            dtype=cfg.dtype, rng=crng(cfg.seed, LAYER0 + i), mode=tmode,
        )
        for i in range(s, e)
    ]
    if stage == stages - 1:
        blocks.append(GPTHeadBlock(cfg))
    return Sequential(blocks)


def build_gpt_blocks(cfg: GPTConfig) -> Tuple[List[Module], Callable]:
    """(blocks, criterion) for block-wise ZeRO training: the serial
    model's modules."""
    return list(build_gpt(cfg)), CrossEntropyLoss()


def gpt2_10b(seq_len: int = 1024) -> GPTConfig:
    """GPT-2 architecture scaled to ~10B parameters (§5.4): 50 layers,
    hidden 4096, 32 heads -> 12*4096^2*50 + embeddings ~= 10.5B."""
    return GPTConfig(
        vocab_size=50257,
        hidden_size=4096,
        n_layers=50,
        n_heads=32,
        seq_len=seq_len,
        mlp_ratio=4,
        dtype="float16",
    )


def opt_13b(seq_len: int = 1024) -> GPTConfig:
    """OPT-13B [41]: 40 layers, hidden 5120, 40 heads (~12.9B params)."""
    return GPTConfig(
        vocab_size=50272,
        hidden_size=5120,
        n_layers=40,
        n_heads=40,
        seq_len=seq_len,
        mlp_ratio=4,
        dtype="float16",
    )
