"""BERT (masked-LM style), parallelized for 1D tensor parallelism and
sequence parallelism — the §5.3 comparison pair.

The sequence-parallel build is the one whose activation memory scales as
``S/p`` (ring attention never materializes a full [S, S] score block per
rank), while the 1D build replicates activations along the sequence — the
asymmetry behind Fig 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.context.parallel_context import ParallelContext
from repro.models.common import EMBED, HEAD, LAYER0, NORM, POS, ModelBundle, crng, resolve_mode
from repro.nn import init as init_mod
from repro.nn.mode import SERIAL, TensorMode
from repro.nn.module import Module, Sequential
from repro.nn.transformer import TransformerLayer
from repro.parallel import tensor_mode
from repro.tensor.tensor import Tensor


@dataclass
class BertConfig:
    vocab_size: int = 1024
    hidden_size: int = 64
    n_layers: int = 2
    n_heads: int = 4
    seq_len: int = 32
    mlp_ratio: int = 4
    dropout: float = 0.0
    dtype: str = "float32"
    seed: int = 13


class Bert(Module):
    """The BERT encoder + LM head, once, over ``mode``: token ids (under
    sequence parallelism, this rank's [B, S/p] slice) to logits."""

    MODES = ("serial", "1d", "sequence")

    def __init__(self, cfg: BertConfig, mode: TensorMode = SERIAL) -> None:
        super().__init__()
        self.cfg = cfg
        self.mode = mode
        self.token_emb = mode.embedding(
            cfg.vocab_size, cfg.hidden_size, dtype=cfg.dtype, rng=crng(cfg.seed, EMBED)
        )
        self.pos_emb = mode.shared_param(
            init_mod.param_payload(
                (cfg.seq_len, cfg.hidden_size), init_mod.normal(0.02),
                crng(cfg.seed, POS), cfg.dtype,
            )
        )
        self.layers = Sequential(
            [
                TransformerLayer(
                    cfg.hidden_size, cfg.n_heads, cfg.mlp_ratio,
                    dropout=cfg.dropout, dtype=cfg.dtype,
                    rng=crng(cfg.seed, LAYER0 + i), mode=mode,
                )
                for i in range(cfg.n_layers)
            ]
        )
        self.norm = mode.layer_norm(cfg.hidden_size, dtype=cfg.dtype, rng=crng(cfg.seed, NORM))
        self.head = mode.lm_head(
            cfg.hidden_size, cfg.vocab_size, dtype=cfg.dtype, rng=crng(cfg.seed, HEAD)
        )

    def forward(self, token_ids) -> Tensor:
        x = self.token_emb(token_ids)
        x = self.mode.add_shared(x, self.pos_emb)
        x = self.layers(x)
        return self.head(self.norm(x))


def build_bert(
    cfg: BertConfig,
    pc: Optional[ParallelContext] = None,
    mode: Optional[str] = None,
    vocab_parallel_loss: bool = False,
) -> ModelBundle:
    """Build BERT for the tensor mode of ``pc`` (serial without one);
    ``mode`` in {serial, 1d, sequence} may restate that and is checked.

    ``vocab_parallel_loss`` (1d mode only): keep the LM logits sharded
    along the vocabulary and use the gather-free vocab-parallel
    cross-entropy — wire traffic O(tokens) instead of O(tokens*vocab)."""
    mode = resolve_mode("BERT", Bert.MODES, pc, mode)
    tmode = tensor_mode(pc)
    if vocab_parallel_loss:
        tmode = tmode.vocab_parallel()
    return ModelBundle.over(Bert(cfg, tmode), tmode, mode)


def bert_base(seq_len: int = 512, dtype: str = "float16", seed: int = 13) -> BertConfig:
    """BERT-Base as in §5.3: 12 layers, hidden 768, 12 heads, 30k vocab."""
    return BertConfig(
        vocab_size=30528,
        hidden_size=768,
        n_layers=12,
        n_heads=12,
        seq_len=seq_len,
        mlp_ratio=4,
        dtype=dtype,
        seed=seed,
    )
