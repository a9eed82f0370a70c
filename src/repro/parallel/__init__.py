"""Parallel execution methods — the paper's §2/§3 inventory.

* :mod:`repro.parallel.comm_ops` — differentiable collectives (the f/g
  conjugate pairs every TP scheme is built from)
* :mod:`repro.parallel.data` — data parallelism (DDP with bucketed
  gradient allreduce)
* :mod:`repro.parallel.tensor1d` — Megatron-style 1D tensor parallelism
* :mod:`repro.parallel.tensor2d` — SUMMA-based 2D tensor parallelism, and
  2.5D (depth-replicated 2D grids) on the same grid
* :mod:`repro.parallel.tensor3d` — 3D (Agarwal) tensor parallelism
* :mod:`repro.parallel.sequence` — sequence parallelism with ring
  self-attention
* :mod:`repro.parallel.pipeline` — pipeline parallelism (GPipe / 1F1B)

Each tensor/sequence file holds its mode's primitives and one
:class:`~repro.nn.mode.TensorMode` subclass; :func:`tensor_mode` turns a
:class:`ParallelContext` into the mode object the one
:class:`repro.nn.TransformerLayer` (and ``ViT`` / ``Bert``) is built over.
"""

from typing import Dict, Optional, Type

from repro.config import TensorParallelConfig
from repro.context.parallel_context import ParallelContext
from repro.nn.mode import SERIAL, TensorMode
from repro.parallel import comm_ops
from repro.parallel.data import DistributedDataParallel, sync_gradients
from repro.parallel.sequence import ModeSequence
from repro.parallel.tensor1d import Mode1D
from repro.parallel.tensor2d import ModeGrid
from repro.parallel.tensor3d import Mode3D

#: ``Config.parallel.tensor.mode`` -> mode class; ``"none"`` is
#: :data:`repro.nn.SERIAL`.  A new mode is its file plus its row here.
MODES: Dict[str, Type[TensorMode]] = {
    "1d": Mode1D,
    "2d": ModeGrid,
    "2.5d": ModeGrid,
    "3d": Mode3D,
    "sequence": ModeSequence,
}


def tensor_mode(pc: Optional[ParallelContext]) -> TensorMode:
    """The mode object of ``pc``'s tensor mode (no context: serial)."""
    if pc is None or pc.tensor_mode == "none":
        return SERIAL
    return MODES[pc.tensor_mode].from_context(pc)


def batch_divisor(tensor: TensorParallelConfig) -> int:
    """``tensor_mode(pc).batch_divisor`` before any rank exists."""
    return MODES.get(tensor.mode, TensorMode).batch_divisor_of(tensor)


__all__ = [
    "comm_ops",
    "DistributedDataParallel",
    "sync_gradients",
    "MODES",
    "tensor_mode",
    "batch_divisor",
]
