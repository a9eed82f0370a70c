"""Unified sharded tensor interface (§3.2).

A :class:`ShardedTensor` owns a logical tensor whose authoritative storage
is a per-rank shard; ``gather()`` reconstructs the full payload with an
all-gather and ``release()`` drops it again.  The partitioning scheme is a
pluggable :class:`ShardingStrategy`, and state transitions fire life-cycle
hooks — the extension points the paper calls out ("customizable sharding
strategies and life-cycle hooks for easy modification of the training
workflow").
"""

from __future__ import annotations

import enum
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.comm.communicator import Communicator
from repro.comm.payload import Payload, SpecArray, is_spec
from repro.tensor.tensor import Tensor


class TensorState(enum.Enum):
    SHARDED = "sharded"
    GATHERED = "gathered"


class ShardingStrategy:
    """How a full payload maps to per-rank shards."""

    def shard(self, full: Payload, comm: Communicator) -> Payload:
        raise NotImplementedError

    def gather(self, local: Payload, comm: Communicator, global_shape: Tuple[int, ...]) -> Payload:
        raise NotImplementedError

    def shard_elements(self, global_shape: Tuple[int, ...], world: int) -> int:
        raise NotImplementedError


class FlatShardingStrategy(ShardingStrategy):
    """ZeRO-style flat sharding: flatten, zero-pad to a multiple of the
    group size, slice equally.  Works for any shape."""

    def _padded(self, n: int, world: int) -> int:
        return math.ceil(n / world) * world

    def shard_elements(self, global_shape: Tuple[int, ...], world: int) -> int:
        n = int(np.prod(global_shape)) if global_shape else 1
        return self._padded(n, world) // world

    def shard(self, full: Payload, comm: Communicator) -> Payload:
        n = int(full.size)
        per = self.shard_elements(tuple(full.shape), comm.size)
        if is_spec(full):
            return SpecArray((per,), full.dtype)
        flat = np.asarray(full).reshape(-1)
        padded = np.zeros(per * comm.size, dtype=flat.dtype)
        padded[:n] = flat
        return padded[comm.rank * per : (comm.rank + 1) * per].copy()

    def gather(self, local: Payload, comm: Communicator, global_shape: Tuple[int, ...]) -> Payload:
        gathered = comm.all_gather(local, axis=0)
        n = int(np.prod(global_shape)) if global_shape else 1
        if is_spec(gathered):
            return SpecArray(global_shape, gathered.dtype)
        return gathered.reshape(-1)[:n].reshape(global_shape)


HookFn = Callable[["ShardedTensor"], None]


class ShardedTensor:
    """A tensor stored as a shard, gatherable on demand.

    Life-cycle hooks: ``on_gather`` fires after the full payload is
    reconstructed, ``on_release`` after it is dropped, ``on_shard_update``
    after ``update_shard``.
    """

    def __init__(
        self,
        full: Payload,
        comm: Communicator,
        strategy: Optional[ShardingStrategy] = None,
        device=None,
        tag: str = "param",
    ) -> None:
        self.comm = comm
        self.strategy = strategy or FlatShardingStrategy()
        self.global_shape = tuple(full.shape)
        self.dtype = np.dtype(full.dtype)
        self.tag = tag
        self._hooks: Dict[str, List[HookFn]] = {
            "on_gather": [], "on_release": [], "on_shard_update": []
        }
        self.shard_tensor = Tensor(
            self.strategy.shard(full, comm), device=device, tag=tag
        )
        self.full_tensor: Optional[Tensor] = None
        self.state = TensorState.SHARDED

    # -- hooks -----------------------------------------------------------------

    def register_hook(self, event: str, fn: HookFn) -> None:
        if event not in self._hooks:
            raise ValueError(f"unknown hook event {event!r}; one of {list(self._hooks)}")
        self._hooks[event].append(fn)

    def _fire(self, event: str) -> None:
        for fn in self._hooks[event]:
            fn(self)

    # -- state transitions --------------------------------------------------------

    def gather(self, device=None) -> Tensor:
        """Reconstruct the full payload (all-gather over the group)."""
        if self.state is TensorState.GATHERED:
            assert self.full_tensor is not None
            return self.full_tensor
        full = self.strategy.gather(
            self.shard_tensor.payload, self.comm, self.global_shape
        )
        self.full_tensor = Tensor(full, device=device, tag=self.tag)
        self.state = TensorState.GATHERED
        self._fire("on_gather")
        return self.full_tensor

    def release(self) -> None:
        """Drop the full payload, keep the shard."""
        if self.state is TensorState.SHARDED:
            return
        assert self.full_tensor is not None
        self.full_tensor.release()
        self.full_tensor = None
        self.state = TensorState.SHARDED
        self._fire("on_release")

    def update_shard(self, new_shard: Payload) -> None:
        """Replace the shard contents (e.g. after an optimizer step)."""
        if tuple(new_shard.shape) != self.shard_tensor.shape:
            raise ValueError(
                f"shard shape mismatch: {tuple(new_shard.shape)} vs {self.shard_tensor.shape}"
            )
        self.shard_tensor.payload = new_shard
        self._fire("on_shard_update")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedTensor(global={self.global_shape}, state={self.state.value}, "
            f"shard={self.shard_tensor.shape})"
        )
