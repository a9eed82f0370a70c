"""Chunk-based memory management (PatrickStar [12], integrated per §3.2).

Parameters are packed into flat **chunks**; the chunk — not the
individual tensor — is the unit of all-gather, host<->device transfer and
optimizer update.  ZeRO-3 packs fixed-size chunks
(:meth:`ChunkManager.register_param`), which it fetches and releases block
by block; ZeRO-1/2 keep every chunk resident and cut each to what it holds
(:meth:`ChunkManager.register_dense`), so no padding crosses the wire.
Large uniform transfers keep effective bandwidth high (the alpha term is
paid once per chunk instead of once per tensor), which is the stated reason
Colossal-AI adopts chunks for offloading.

Each rank is authoritative for its *shard* of each chunk (``capacity / dp``
elements) and steps it with :meth:`Chunk.adam_step` at every ZeRO stage
(DESIGN §4y).  At ZeRO-3 only the shard stays resident: ``fetch``
reconstructs the full fp16 chunk on the GPU (host transfer if the shard is
offloaded + all-gather across the data-parallel group) and ``release_full``
drops it.  Gradient shards can reuse the fp16 parameter shard storage
(Fig 6 memory-space reuse) because the fp32 master copy lives in the
optimizer state.
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
from repro.optim.adam import Adam, adam_state, adam_update
from repro.tensor.tensor import Storage

#: the default chunk size in MiB, ZeRO-3's and ZeRO-1/2's alike
CHUNK_MB = 32.0


@dataclass
class ParamRecord:
    param: Parameter
    offset: int
    numel: int
    shape: Tuple[int, ...]


class Chunk:
    """One flat buffer of parameters: the unit of gather, reduce-scatter and
    update."""

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
        # all-gather handle and the (handle, staged flat) of an async
        # reduce-scatter of this chunk's gradients
        self._pending_gather: Optional[Any] = None
        self._pending_rs: Optional[Tuple[Any, Payload]] = None
        self.last_used_step = -1
        #: Adam's fp32 state of this rank's shard (:meth:`init_adam`)
        self.adam: Optional[Dict[str, Any]] = None

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

    def keep_full(self) -> None:
        """Hold the full chunk resident for good (ZeRO-1/2): the shard is a
        slice of it, so the shard's own storage goes."""
        self._shard_storage.release()
        self._full_storage = Storage(self.gpu, self.full_nbytes, "param")

    # -- gradients -----------------------------------------------------------------

    def reduce_scatter_grads(
        self,
        cost_model: Optional[CostModel] = None,
        rank: int = 0,
        clock=None,
        reuse_fp16_storage: bool = True,
        async_op: bool = False,
        keep_grads: bool = False,
    ) -> None:
        """Collect full parameter grads, reduce-scatter across the group in
        the chunk's dtype, keep this rank's averaged grad shard in fp32
        (optionally reusing the fp16 param shard storage — Fig 6) and drop
        the full grads unless ``keep_grads`` (ZeRO-1 keeps them).  An
        offloaded shard streams its grad shard to the host, priced by
        ``cost_model`` for ``rank`` on ``clock``.

        ``async_op=True`` issues the reduce-scatter nonblocking on the comm
        stream and returns immediately; :meth:`finish_grad_reduce` completes
        it (the overlap scheduler calls that right before the chunk's
        optimizer update)."""
        pool = self.comm.group.runtime.buffer_pool
        if self.values is not None:
            if pool is not None:
                flat: Payload = pool.loan((self.capacity,), self.dtype, "zero.chunk_flat")
                flat.fill(0)  # padding past the packed records must be zero
            else:
                flat = np.zeros(self.capacity, dtype=self.dtype)
            for r in self.records:
                if r.param.grad is not None:
                    flat[r.offset : r.offset + r.numel] = r.param.grad.numpy().reshape(-1)
        else:
            flat = SpecArray((self.capacity,), self.dtype)
        if async_op:
            self._pending_rs = (self.comm.ireduce_scatter(flat, axis=0), flat)
        else:
            shard = self.comm.reduce_scatter(flat, axis=0)
            if pool is not None:
                pool.restock(flat)
            self._grad_shard = None if is_spec(shard) else (
                shard / self.comm.size).astype(np.float32, copy=False)
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
        if not keep_grads:
            for r in self.records:
                r.param.grad = None

    def finish_grad_reduce(self) -> None:
        """Complete an ``async_op`` reduce-scatter (no-op otherwise): wait
        the handle and keep this rank's averaged grad shard."""
        if self._pending_rs is None:
            return
        handle, flat = self._pending_rs
        self._pending_rs = None
        shard = handle.wait()
        pool = self.comm.group.runtime.buffer_pool
        if pool is not None:
            pool.restock(flat)
        self._grad_shard = None if is_spec(shard) else (
            shard / self.comm.size).astype(np.float32, copy=False)

    @property
    def grad_shard(self) -> Optional[np.ndarray]:
        return self._grad_shard

    # -- optimizer -------------------------------------------------------------------

    def init_adam(self, device: Device) -> None:
        """Adam's fp32 ``m`` / ``v`` and master copy of this rank's shard, on
        ``device`` — all the optimizer state any ZeRO stage keeps."""
        self.adam = adam_state((self.shard_elems,), device, self.shard_payload())

    def adam_step(self, device: Device, clock, hp: Dict[str, Any], decoupled: bool) -> None:
        """The chunk's update, priced on ``device``: Adam (``decoupled``:
        AdamW, with ``hp``'s ``lr`` / ``betas`` / ``eps`` / ``weight_decay``)
        on the fp32 master shard from the averaged grad shard, the shard
        written back in the chunk's dtype, the grad shard dropped."""
        clock.advance(
            device.compute_seconds(Adam.FLOPS_PER_ELEMENT * self.shard_elems, "float32"),
            "optimizer",
        )
        g = self._grad_shard
        if g is not None:  # spec mode: only timing/memory matter
            master = self.adam["master"].numpy()
            adam_update(master, self.adam, g, hp["lr"], hp["betas"], hp["eps"],
                        hp["weight_decay"], decoupled)
            r = self.comm.rank
            self.values[r * self.shard_elems : (r + 1) * self.shard_elems] = master
            self._grad_shard = None
        if self._grad_storage is not None:
            self._grad_storage.release()
            self._grad_storage = None

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

    def register_dense(self, params: List[Parameter]) -> None:
        """Pack ``params`` in order into chunks of up to ``chunk_elements``,
        each cut to what it holds (rounded up to the group size); a larger
        parameter gets its own.  For chunks that are never released
        (ZeRO-1/2): a fixed size buys them no reuse, and its padding would
        cross the wire at every step."""
        groups: List[List[Parameter]] = []
        for p in params:
            if not groups or used + p.size > self.chunk_elements:
                groups.append([])
                used = 0
            groups[-1].append(p)
            used += p.size
        for group in groups:
            used = sum(p.size for p in group)
            chunk = self._new_chunk(math.ceil(used / self.comm.size) * self.comm.size)
            for p in group:
                chunk.pack(p)
                self.param_chunk[id(p)] = chunk

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
