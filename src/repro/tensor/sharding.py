"""Sharding helpers.

One tensor dimension split ``parts`` ways: the local chunk's shape and the
chunk at an index.  The tensor-parallel layers (1D / 2D / 2.5D / 3D), the
sequence-parallel layers and the ViT input slicing take their local shards
from :func:`shard_payload`; ZeRO shards flat chunks instead
(``repro.zero.chunk``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.comm.payload import Payload, SpecArray, is_spec


def local_shard_shape(shape: Tuple[int, ...], axis: int, parts: int) -> Tuple[int, ...]:
    """Shape of one chunk when ``shape[axis]`` is split ``parts`` ways."""
    if shape[axis] % parts != 0:
        raise ValueError(f"axis {axis} of {shape} not divisible by {parts}")
    out = list(shape)
    out[axis] //= parts
    return tuple(out)


def shard_payload(payload: Payload, axis: int, parts: int, index: int) -> Payload:
    """The ``index``-th of ``parts`` equal chunks of ``payload`` along ``axis``."""
    if payload.shape[axis] % parts != 0:
        raise ValueError(f"axis {axis} of {payload.shape} not divisible by {parts}")
    if is_spec(payload):
        return SpecArray(local_shard_shape(payload.shape, axis, parts), payload.dtype)
    chunks = np.split(payload, parts, axis=axis)
    return np.ascontiguousarray(chunks[index])
