"""Chunk-based memory management (PatrickStar [12], integrated per §3.2).

Parameters are packed into fixed-size flat **chunks**; the chunk — not the
individual tensor — is the unit of all-gather, host<->device transfer and
optimizer update.  Large uniform transfers keep effective bandwidth high
(the alpha term is paid once per chunk instead of once per tensor), which
is the stated reason Colossal-AI adopts chunks for offloading.

Authoritative storage is the per-rank ZeRO-3 *shard* of each chunk
(``capacity / dp`` elements).  ``fetch`` reconstructs the full fp16 chunk on
the GPU (host transfer if the shard is offloaded + all-gather across the
data-parallel group); ``release_full`` drops it.  Gradient shards can reuse
the fp16 parameter shard storage (Fig 6 memory-space reuse) because the
fp32 master copy lives in the optimizer state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.device import Device
from repro.comm.communicator import Communicator
from repro.comm.cost import CostModel
from repro.comm.payload import Payload, SpecArray, is_spec
from repro.nn.module import Module, Parameter
from repro.runtime.spmd import current_rank_context
from repro.tensor.tensor import Storage, Tensor


@dataclass
class ParamRecord:
    param: Parameter
    offset: int
    numel: int
    shape: Tuple[int, ...]


class Chunk:
    """One fixed-size flat buffer of parameters."""

    def __init__(
        self,
        capacity: int,
        dtype: np.dtype,
        comm: Communicator,
        gpu: Device,
        cpu: Device,
        index: int,
    ) -> None:
        self.capacity = capacity  # elements, multiple of comm.size
        self.dtype = np.dtype(dtype)
        self.comm = comm
        self.gpu = gpu
        self.cpu = cpu
        self.index = index
        self.records: List[ParamRecord] = []
        self.used = 0
        self.location = "gpu"  # where the shard lives
        self.shard_elems = capacity // comm.size
        # bookkeeping values (materialized mode); identical on all ranks at
        # pack time, each rank authoritative for its own slice afterwards
        self.values: Optional[np.ndarray] = None
        self._shard_storage = Storage(gpu, self.shard_elems * self.dtype.itemsize, "param")
        self._full_storage: Optional[Storage] = None
        self._grad_shard: Optional[np.ndarray] = None
        self._grad_storage: Optional[Storage] = None
        # in-flight nonblocking ops (overlap scheduler): the prefetched
        # all-gather handle and the (handle, average) of an async
        # reduce-scatter of this chunk's gradients
        self._pending_gather: Optional[Any] = None
        self._pending_rs: Optional[Tuple[Any, bool, Payload]] = None
        self.last_used_step = -1

    # -- packing ----------------------------------------------------------------

    @property
    def free_elements(self) -> int:
        return self.capacity - self.used

    def pack(self, param: Parameter) -> None:
        n = param.size
        if n > self.free_elements:
            raise ValueError(f"chunk {self.index} overflow packing {n} elements")
        rec = ParamRecord(param, self.used, n, param.shape)
        self.records.append(rec)
        if param.materialized:
            if self.values is None:
                self.values = np.zeros(self.capacity, dtype=self.dtype)
            self.values[rec.offset : rec.offset + n] = (
                param.numpy().astype(self.dtype).reshape(-1)
            )
            # re-point the parameter at the chunk's buffer and release its
            # standalone storage: the chunk is now the accounting unit
            param.storage.release()
            param.payload = self.values[rec.offset : rec.offset + n].reshape(rec.shape)
        else:
            param.storage.release()
            param.payload = SpecArray(rec.shape, self.dtype)
        self.used += n

    # -- shard payload ------------------------------------------------------------

    def shard_payload(self) -> Payload:
        if self.values is not None:
            r = self.comm.rank
            return self.values[r * self.shard_elems : (r + 1) * self.shard_elems]
        return SpecArray((self.shard_elems,), self.dtype)

    @property
    def shard_nbytes(self) -> int:
        return self.shard_elems * self.dtype.itemsize

    @property
    def full_nbytes(self) -> int:
        return self.capacity * self.dtype.itemsize

    @property
    def is_fetched(self) -> bool:
        return self._full_storage is not None

    # -- movement -------------------------------------------------------------------

    def move_shard(self, where: str, cost_model: CostModel, rank: int, clock) -> None:
        """Move the shard (and pay the PCIe cost) between host and device."""
        if where == self.location:
            return
        cost = cost_model.host_transfer(rank, self.shard_nbytes)
        clock.advance(cost.seconds, "offload")
        target = self.gpu if where == "gpu" else self.cpu
        old = self._shard_storage
        self._shard_storage = Storage(target, self.shard_nbytes, "param")
        old.release()
        self.location = where

    def prefetch(self, cost_model: CostModel, rank: int, clock) -> None:
        """Issue this chunk's all-gather on the comm stream without blocking
        (the overlap scheduler calls this one block ahead); the next
        :meth:`fetch` completes it.  An offloaded shard pays its host
        transfer here — same charge as the blocking path, just earlier."""
        if self.is_fetched or self._pending_gather is not None:
            return
        if self.location == "cpu":
            cost = cost_model.host_transfer(rank, self.shard_nbytes)
            clock.advance(cost.seconds, "offload")
        self._pending_gather = self.comm.iall_gather(self.shard_payload(), axis=0)

    def fetch(self, cost_model: CostModel, rank: int, clock, step: int = 0) -> None:
        """Reconstruct the full fp16 chunk on the GPU."""
        if self.is_fetched:
            self.last_used_step = step
            return
        if self._pending_gather is not None:
            gathered = self._pending_gather.wait()
            self._pending_gather = None
        else:
            if self.location == "cpu":
                cost = cost_model.host_transfer(rank, self.shard_nbytes)
                clock.advance(cost.seconds, "offload")
            gathered = self.comm.all_gather(self.shard_payload(), axis=0)
        if self.values is not None and not is_spec(gathered):
            self.values[...] = gathered
        self._full_storage = Storage(self.gpu, self.full_nbytes, "param")
        self.last_used_step = step

    def release_full(self) -> None:
        if self._full_storage is not None:
            self._full_storage.release()
            self._full_storage = None

    # -- gradients -----------------------------------------------------------------

    def reduce_scatter_grads(
        self,
        cost_model: CostModel,
        rank: int,
        clock,
        reuse_fp16_storage: bool = True,
        average: bool = True,
        async_op: bool = False,
    ) -> None:
        """Collect full parameter grads, reduce-scatter across the group,
        keep this rank's grad shard (optionally reusing the fp16 param
        shard storage — Fig 6).

        ``async_op=True`` issues the reduce-scatter nonblocking on the comm
        stream and returns immediately; :meth:`finish_grad_reduce` completes
        it (the overlap scheduler calls that right before the chunk's
        optimizer update)."""
        pool = self.comm.group.runtime.buffer_pool
        if self.values is not None and all(
            r.param.grad is not None and r.param.grad.materialized for r in self.records
        ):
            if pool is not None:
                flat: Payload = pool.loan(
                    (self.capacity,), np.float32, "zero.chunk_flat"
                )
                flat.fill(0.0)  # padding past the packed records must be zero
            else:
                flat = np.zeros(self.capacity, dtype=np.float32)
            for r in self.records:
                flat[r.offset : r.offset + r.numel] = (
                    r.param.grad.numpy().astype(np.float32).reshape(-1)
                )
        else:
            flat = SpecArray((self.capacity,), self.dtype)
        if async_op:
            self._pending_rs = (
                self.comm.ireduce_scatter(flat, axis=0), average, flat,
            )
        else:
            shard = self.comm.reduce_scatter(flat, axis=0)
            if pool is not None:
                pool.restock(flat)
            if is_spec(shard):
                self._grad_shard = None
            else:
                if average:
                    shard = shard / self.comm.size
                self._grad_shard = shard
        if not reuse_fp16_storage:
            self._grad_storage = Storage(
                self.gpu if self.location == "gpu" else self.cpu,
                self.shard_nbytes,
                "grad",
            )
        if self.location == "cpu":
            # offloaded shard: stream the gradient shard to the host
            cost = cost_model.host_transfer(rank, self.shard_nbytes)
            clock.advance(cost.seconds, "offload")
        # drop the full per-parameter gradients
        for r in self.records:
            r.param.grad = None

    def finish_grad_reduce(self) -> None:
        """Complete an ``async_op`` reduce-scatter (no-op otherwise): wait
        the handle and keep this rank's averaged grad shard."""
        if self._pending_rs is None:
            return
        handle, average, flat = self._pending_rs
        self._pending_rs = None
        shard = handle.wait()
        pool = self.comm.group.runtime.buffer_pool
        if pool is not None:
            pool.restock(flat)
        if is_spec(shard):
            self._grad_shard = None
        else:
            if average:
                shard = shard / self.comm.size
            self._grad_shard = shard

    @property
    def grad_shard(self) -> Optional[np.ndarray]:
        return self._grad_shard

    def clear_grad_shard(self) -> None:
        self._grad_shard = None
        if self._grad_storage is not None:
            self._grad_storage.release()
            self._grad_storage = None

    def apply_shard_update(self, new_fp16: Optional[np.ndarray]) -> None:
        """Write the updated fp16 shard back (optimizer step output)."""
        if new_fp16 is not None and self.values is not None:
            r = self.comm.rank
            self.values[r * self.shard_elems : (r + 1) * self.shard_elems] = new_fp16

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Chunk({self.index}, used={self.used}/{self.capacity}, "
            f"loc={self.location}, fetched={self.is_fetched})"
        )


class ChunkManager:
    """Packs module parameters into chunks and tracks ownership."""

    def __init__(
        self,
        comm: Communicator,
        gpu: Device,
        cpu: Device,
        chunk_elements: int,
        dtype: np.dtype = np.dtype("float16"),
    ) -> None:
        self.comm = comm
        self.gpu = gpu
        self.cpu = cpu
        # chunk size must shard evenly across the group
        self.chunk_elements = math.ceil(chunk_elements / comm.size) * comm.size
        self.dtype = np.dtype(dtype)
        self.chunks: List[Chunk] = []
        self.param_chunk: Dict[int, Chunk] = {}
        self._open: Optional[Chunk] = None

    def _new_chunk(self, capacity: int) -> Chunk:
        chunk = Chunk(
            capacity, self.dtype, self.comm, self.gpu, self.cpu, len(self.chunks)
        )
        self.chunks.append(chunk)
        return chunk

    def register_module(self, module: Module) -> None:
        for p in module.parameters():
            self.register_param(p)

    def register_param(self, param: Parameter) -> None:
        n = param.size
        if n > self.chunk_elements:
            # oversized parameter: dedicated right-sized chunk
            cap = math.ceil(n / self.comm.size) * self.comm.size
            chunk = self._new_chunk(cap)
            self._open = None
        else:
            chunk = self._open
            if chunk is None or chunk.free_elements < n:
                chunk = self._new_chunk(self.chunk_elements)
            self._open = chunk
        chunk.pack(param)
        self.param_chunk[id(param)] = chunk

    def close_current(self) -> None:
        """Seal the open chunk so the next parameter starts a fresh one.

        The offload engine calls this at block boundaries so a chunk never
        spans two checkpointed blocks (its gradients must all exist when the
        chunk's reduce-scatter runs)."""
        self._open = None

    def chunks_of(self, module: Module) -> List[Chunk]:
        seen: Dict[int, Chunk] = {}
        for p in module.parameters():
            c = self.param_chunk.get(id(p))
            if c is not None:
                seen[c.index] = c
        return [seen[i] for i in sorted(seen)]
