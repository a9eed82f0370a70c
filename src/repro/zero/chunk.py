"""Chunk-based memory management (PatrickStar [12], integrated per §3.2).

Parameters are packed into flat **chunks**; the chunk — not the
individual tensor — is the unit of all-gather, host<->device transfer and
optimizer update.  :func:`pack_chunks` is the one packer: in order, chunks
of up to ``CHUNK_MB``, each cut to what it holds, a larger parameter in a
chunk of its own, so no padding but the rounding to the data-parallel size
crosses the wire.  ZeRO-1/2 pack their whole parameter list once and keep
every chunk resident; ZeRO-3 packs each checkpointed block on its own, so
no chunk spans two blocks, and fetches and releases the block's chunks.
Large uniform transfers keep effective bandwidth high (the alpha term is
paid once per chunk instead of once per tensor), which is the stated reason
Colossal-AI adopts chunks for offloading.

Each rank is authoritative for its *shard* of each chunk (``capacity / dp``
elements) and steps it with :meth:`Chunk.adam_step` at every ZeRO stage
(DESIGN §4y); :meth:`Chunk.gather` then rebuilds the full chunk from the
ranks' shards at every stage too.  At ZeRO-3 only the shard stays
resident: ``fetch`` reconstructs the full fp16 chunk on the GPU (host
transfer if the shard is offloaded + the gather) and ``release_full``
drops it.  Gradient shards can reuse the fp16 parameter shard storage
(Fig 6 memory-space reuse) because the fp32 master copy lives in the
optimizer state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cluster.device import Device
from repro.comm.communicator import Communicator
from repro.comm.cost import CostModel
from repro.comm.payload import Payload, SpecArray, is_spec
from repro.nn.module import Parameter
from repro.optim.adam import Adam, adam_state, adam_update
from repro.tensor.tensor import Storage

#: the default chunk size in MiB, ZeRO-3's and ZeRO-1/2's alike
CHUNK_MB = 32.0


@dataclass
class ParamRecord:
    param: Parameter
    offset: int
    numel: int


def pack_chunks(
    params: Iterable[Parameter],
    comm: Communicator,
    gpu: Device,
    cpu: Device,
    max_elements: int,
    dtype: np.dtype,
) -> List["Chunk"]:
    """Pack ``params`` in order, in one pass, into chunks of up to
    ``max_elements``; each chunk is cut to what it holds, and a larger
    parameter gets a chunk of its own.  Both sizes are rounded up to the
    group size, so every chunk shards evenly."""
    limit = math.ceil(max_elements / comm.size) * comm.size
    chunks: List[Chunk] = []
    group: List[Parameter] = []
    used = 0
    for p in params:
        n = p.size
        if group and used + n > limit:
            chunks.append(Chunk(group, used, dtype, comm, gpu, cpu))
            group, used = [], 0
        group.append(p)
        used += n
    if group:
        chunks.append(Chunk(group, used, dtype, comm, gpu, cpu))
    return chunks


class Chunk:
    """One flat buffer of parameters: the unit of gather, reduce-scatter and
    update.  Built by :func:`pack_chunks` from ``params`` (``used`` elements
    in all), which it takes over: each parameter's payload becomes a view of
    the chunk and its own storage goes."""

    def __init__(
        self,
        params: List[Parameter],
        used: int,
        dtype: np.dtype,
        comm: Communicator,
        gpu: Device,
        cpu: Device,
    ) -> None:
        self.used = used
        self.capacity = math.ceil(used / comm.size) * comm.size
        self.dtype = np.dtype(dtype)
        self.comm = comm
        self.gpu = gpu
        self.cpu = cpu
        self.location = "gpu"  # where the shard lives
        self.shard_elems = self.capacity // comm.size
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
        self.records: List[ParamRecord] = []
        offset = 0
        for param in params:
            n, shape = param.size, param.shape
            self.records.append(ParamRecord(param, offset, n))
            if param.materialized:
                if self.values is None:
                    self.values = np.zeros(self.capacity, dtype=self.dtype)
                view = self.values[offset : offset + n]
                view[...] = param.numpy().astype(self.dtype).reshape(-1)
                # re-point the parameter at the chunk's buffer and release
                # its standalone storage: the chunk is now the accounting unit
                param.storage.release()
                param.payload = view.reshape(shape)
            else:
                param.storage.release()
                param.payload = SpecArray(shape, self.dtype)
            offset += n

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

    def gather(self) -> None:
        """Rebuild the full chunk from the ranks' shards, into ``values``
        when materialized: wait the prefetched all-gather, or issue one."""
        if self._pending_gather is not None:
            gathered = self._pending_gather.wait()
            self._pending_gather = None
        else:
            gathered = self.comm.all_gather(self.shard_payload(), axis=0)
        if self.values is not None and not is_spec(gathered):
            self.values[...] = gathered

    def fetch(self, cost_model: CostModel, rank: int, clock, step: int = 0) -> None:
        """Reconstruct the full fp16 chunk on the GPU."""
        if self._full_storage is None:
            if self._pending_gather is None and self.location == "cpu":
                cost = cost_model.host_transfer(rank, self.shard_nbytes)
                clock.advance(cost.seconds, "offload")
            self.gather()
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
            f"Chunk(used={self.used}/{self.capacity}, "
            f"loc={self.location}, fetched={self.is_fetched})"
        )
