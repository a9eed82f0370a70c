"""Parallelized model zoo (§4: "Colossal-AI also provides parallelized
popular model components such as BERT, GPT, ViT").

Each builder returns a :class:`ModelBundle` — the model plus mode-aware
input sharding and loss helpers — so examples and benchmarks run identical
loops across serial / 1D / 2D / 2.5D / 3D / sequence-parallel configs.
"""

from repro.models.common import ModelBundle, crng
from repro.models.vit import ViTConfig, build_vit
from repro.models.bert import BertConfig, build_bert
from repro.models.gpt import GPTConfig, build_gpt, build_gpt_blocks, gpt2_10b, opt_13b

__all__ = [
    "ModelBundle",
    "crng",
    "ViTConfig",
    "build_vit",
    "BertConfig",
    "build_bert",
    "GPTConfig",
    "build_gpt",
    "build_gpt_blocks",
    "gpt2_10b",
    "opt_13b",
]
