"""Neural-network building blocks.

The primitives here are the serial reference; :class:`TransformerLayer`
and its two blocks are written once over a ``mode`` object
(:mod:`repro.nn.mode`, default :data:`SERIAL`) that the parallel packages
(:mod:`repro.parallel`) subclass.  Parity tests assert that the layer under
each parallel mode matches the serial one (up to float tolerance).
"""

from repro.nn.module import Module, ModuleList, Parameter, Sequential
from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear
from repro.nn.mode import SERIAL, TensorMode
from repro.nn.transformer import FeedForward, MultiHeadAttention, TransformerLayer
from repro.nn.loss import CrossEntropyLoss
from repro.nn import init

__all__ = [
    "Module",
    "ModuleList",
    "Sequential",
    "Parameter",
    "Linear",
    "LayerNorm",
    "Embedding",
    "Dropout",
    "MultiHeadAttention",
    "FeedForward",
    "TransformerLayer",
    "TensorMode",
    "SERIAL",
    "CrossEntropyLoss",
    "init",
]
