"""Sharding descriptors.

``ShardSpec`` records how a logical (global) tensor is partitioned across a
device mesh — which tensor dimension is split how many ways — and maps a
mesh coordinate to the local chunk.  The tensor-parallel layers (1D/2D/
2.5D/3D) and the ZeRO sharded tensors both build on these helpers, which is
the paper's "unified sharded tensor interface" (§3.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.comm.payload import Payload, SpecArray, is_spec


@dataclass(frozen=True)
class ShardSpec:
    """Partition of a global shape: ``partitions[dim] = number of parts``.

    Dims absent from ``partitions`` are replicated.
    """

    global_shape: Tuple[int, ...]
    partitions: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for dim, parts in self.partitions.items():
            if dim < 0 or dim >= len(self.global_shape):
                raise ValueError(f"partition dim {dim} out of range for {self.global_shape}")
            if self.global_shape[dim] % parts != 0:
                raise ValueError(
                    f"dim {dim} of {self.global_shape} not divisible by {parts}"
                )

    @property
    def local_shape(self) -> Tuple[int, ...]:
        shape = list(self.global_shape)
        for dim, parts in self.partitions.items():
            shape[dim] //= parts
        return tuple(shape)

    @property
    def num_shards(self) -> int:
        return int(math.prod(self.partitions.values())) if self.partitions else 1

    def chunk(self, payload: Payload, index: Dict[int, int]) -> Payload:
        """Extract the local chunk at mesh coordinate ``index``
        (``index[dim] = which part along dim``)."""
        if is_spec(payload):
            return SpecArray(self.local_shape, payload.dtype)
        out = payload
        for dim, parts in self.partitions.items():
            i = index.get(dim, 0)
            if not (0 <= i < parts):
                raise ValueError(f"shard index {i} out of range for dim {dim} ({parts} parts)")
            step = self.global_shape[dim] // parts
            out = np.take(out, range(i * step, (i + 1) * step), axis=dim)
        return np.ascontiguousarray(out)


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
