"""Weight initializers.

All initializers are driven by an explicit :class:`numpy.random.Generator`
so tensor-parallel layers can draw the *same* global matrix on every rank
(seeded per parallel mode by :mod:`repro.context.seed`) and then keep only
their shard — the mechanism that makes multi-dimensional TP arithmetically
identical to serial execution (verified by the Fig 7 convergence bench).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm.payload import SpecArray
from repro.runtime.spmd import rank_context

InitFn = Callable[[Tuple[int, ...], np.random.Generator], np.ndarray]


def zeros_init(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def ones_init(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    return np.ones(shape, dtype=np.float64)


def normal(std: float = 0.02) -> InitFn:
    def fn(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(shape) * std

    return fn


def _fan(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """(fan_in, fan_out) with our [in, out] linear-weight convention."""
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = shape[0] * int(np.prod(shape[2:])) if len(shape) > 2 else shape[0]
    fan_out = shape[1] * int(np.prod(shape[2:])) if len(shape) > 2 else shape[1]
    return fan_in, fan_out


def xavier_uniform(gain: float = 1.0) -> InitFn:
    def fn(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        fan_in, fan_out = _fan(shape)
        bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, shape)

    return fn


def lecun_normal() -> InitFn:
    """The "Jax initialization" the paper uses for its ViT runs (§5.2)."""

    def fn(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        fan_in, _ = _fan(shape)
        std = math.sqrt(1.0 / max(fan_in, 1))
        return rng.standard_normal(shape) * std

    return fn


def param_payload(
    shape: Sequence[int],
    init_fn: InitFn,
    rng: Optional[np.random.Generator],
    dtype: Union[str, np.dtype] = "float32",
):
    """Materialize an init (or a SpecArray in spec mode)."""
    rc = rank_context()
    if rc is not None and not rc.materialize:
        return SpecArray(shape, dtype)
    shape = tuple(int(s) for s in shape)
    if rng is None:
        rng = np.random.default_rng()
    return init_fn(shape, rng).astype(np.dtype(dtype))
