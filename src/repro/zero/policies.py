"""Tensor placement policies (§3.2 "adaptive tensor placement").

``StaticPolicy`` reproduces DeepSpeed zero-offload: every parameter shard
(and all optimizer state) is pinned in host memory, unconditionally — the
paper's point is that this wastes free GPU memory and pays PCIe on every
step when the batch is small (Fig 14).

``AdaptivePolicy`` is Colossal-AI's improvement: it monitors the GPU pool
and keeps chunk shards (plus their optimizer states) on the GPU as long as
free memory stays above a headroom reserved for activations, offloading
only the overflow.  The engine asks ``optimizer_device`` at every step, so
GPU-resident chunks are updated on the GPU — the paper's hybrid Adam
(§3.2), made per chunk.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.device import Device
from repro.comm.cost import CostModel
from repro.zero.chunk import Chunk


class PlacementPolicy:
    """Decides where chunk shards (and their optimizer state) live."""

    #: label used by benchmarks
    name = "base"

    def __init__(self, gpu: Device, cpu: Device, cost_model: CostModel, rank: int) -> None:
        self.gpu = gpu
        self.cpu = cpu
        self.cost_model = cost_model
        self.rank = rank

    def setup(self, chunks: List[Chunk], clock) -> None:
        """Place shards before training starts."""
        raise NotImplementedError

    def optimizer_device(self, chunk: Chunk) -> str:
        """Where the fp32 master/moments of a chunk live ("gpu"/"cpu")."""
        raise NotImplementedError

    def pre_fetch(self, chunk: Chunk, clock, step: int) -> None:
        """Called before a chunk is fetched for compute."""

    def post_release(self, chunk: Chunk, clock, step: int) -> None:
        """Called after a chunk's full buffer is released."""


class StaticPolicy(PlacementPolicy):
    """DeepSpeed-style static offload: everything lives on the host."""

    name = "static"

    def setup(self, chunks: List[Chunk], clock) -> None:
        for c in chunks:
            c.move_shard("cpu", self.cost_model, self.rank, clock)

    def optimizer_device(self, chunk: Chunk) -> str:
        return "cpu"


class NoOffloadPolicy(PlacementPolicy):
    """Keep everything on the GPU (plain ZeRO-3); OOMs when it doesn't fit."""

    name = "none"

    def setup(self, chunks: List[Chunk], clock) -> None:
        for c in chunks:
            c.move_shard("gpu", self.cost_model, self.rank, clock)

    def optimizer_device(self, chunk: Chunk) -> str:
        return "gpu"


class AdaptivePolicy(PlacementPolicy):
    """Colossal-AI adaptive placement.

    At setup, chunks are kept on the GPU greedily (shard + its fp32
    optimizer state, ~``OPTIM_FLOATS``x4 bytes per element) until free GPU
    memory would drop below ``activation_headroom`` bytes; the rest is
    offloaded.  During training, if an OOM-risk is detected before a fetch
    (free < chunk full size), the least-recently-used GPU-resident chunk is
    evicted.
    """

    name = "adaptive"

    #: fp32 floats of optimizer state per parameter element (master + m + v)
    OPTIM_FLOATS = 3

    def __init__(
        self,
        gpu: Device,
        cpu: Device,
        cost_model: CostModel,
        rank: int,
        activation_headroom: int = 0,
    ) -> None:
        super().__init__(gpu, cpu, cost_model, rank)
        self.activation_headroom = activation_headroom
        self._gpu_resident: List[Chunk] = []

    def _state_bytes(self, chunk: Chunk) -> int:
        return chunk.shard_elems * 4 * self.OPTIM_FLOATS

    def setup(self, chunks: List[Chunk], clock) -> None:
        budget = self.gpu.memory.free - self.activation_headroom
        for c in chunks:
            need = c.shard_nbytes + self._state_bytes(c)
            if need <= budget:
                c.move_shard("gpu", self.cost_model, self.rank, clock)
                self._gpu_resident.append(c)
                budget -= need
            else:
                c.move_shard("cpu", self.cost_model, self.rank, clock)

    def optimizer_device(self, chunk: Chunk) -> str:
        return chunk.location

    def pre_fetch(self, chunk: Chunk, clock, step: int) -> None:
        # evict LRU GPU-resident chunks if the full gathered buffer wouldn't
        # fit.  The margin here is a couple of chunk sizes — NOT the
        # activation headroom, which was already reserved at setup;
        # re-applying it here would evict the whole model the moment
        # activations start occupying their reserved space.
        margin = 2 * chunk.full_nbytes
        while (
            self.gpu.memory.free < chunk.full_nbytes + margin
            and self._gpu_resident
        ):
            lru = min(self._gpu_resident, key=lambda c: c.last_used_step)
            if lru is chunk or lru.is_fetched:
                break
            lru.move_shard("cpu", self.cost_model, self.rank, clock)
            self._gpu_resident.remove(lru)
