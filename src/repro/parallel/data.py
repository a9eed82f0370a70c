"""Data parallelism.

The model is replicated; the dataset is sharded (Fig 3a).  After backward,
parameter gradients are averaged across the data-parallel group with
bucketed all-reduce — fusing small gradients into flat buckets is what
keeps bandwidth utilisation high on real NCCL and the alpha term small in
our cost model.

With ``comm.overlap`` enabled the DDP wrapper goes further: buckets are
built over *reversed* registration order (gradients become ready back to
front) and each bucket's all-reduce is issued nonblocking from a gradient
hook the moment its last gradient lands, so bucket k's transfer runs on
the comm stream while earlier layers' backward still computes.  ``sync()``
then only waits the handles and unpacks — numerically identical to the
post-backward sweep, because each bucket's reduction combines the same
per-rank values in the same local-rank order.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.engine import ReadyCount
from repro.comm.communicator import Communicator
from repro.comm.payload import SpecArray
from repro.context.parallel_context import ParallelContext, ParallelMode
from repro.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor
from repro.utils.units import MB


def _bucketize(params: Sequence[Parameter], bucket_bytes: int) -> List[List[Parameter]]:
    """Greedy order-preserving bucketing: close the current bucket once it
    reaches ``bucket_bytes``.  A single parameter at or over the cap gets a
    dedicated bucket — any accumulated smaller params are flushed first, so
    an oversized param never drags neighbours past the cap with it."""
    buckets: List[List[Parameter]] = []
    current: List[Parameter] = []
    size = 0
    for p in params:
        if p.nbytes >= bucket_bytes:
            if current:
                buckets.append(current)
                current, size = [], 0
            buckets.append([p])
            continue
        current.append(p)
        size += p.nbytes
        if size >= bucket_bytes:
            buckets.append(current)
            current, size = [], 0
    if current:
        buckets.append(current)
    return buckets


def sync_gradients(
    params: Sequence[Parameter],
    comm: Communicator,
    bucket_mb: float = 25.0,
) -> None:
    """All-reduce and average ``.grad`` of every parameter across ``comm``.

    Gradients are flattened into ~``bucket_mb`` MiB buckets; one all-reduce
    per bucket.  Parameters without gradients are skipped.
    """
    if comm.size == 1:
        return
    pool = comm.group.runtime.buffer_pool
    with_grads = [p for p in params if p.grad is not None]
    for bucket in _bucketize(with_grads, int(bucket_mb * MB)):
        flat: object = _spec_flat(bucket)
        if flat is not None:
            comm.all_reduce(flat)
            continue
        flat = _flat_bucket(bucket, pool)
        _unpack_averaged(bucket, comm.all_reduce(flat), flat, comm.size, pool)


def _unpack_averaged(bucket: Sequence[Parameter], reduced: np.ndarray,
                     flat: np.ndarray, size: int, pool: Optional[Any]) -> None:
    """Write ``reduced / size`` back into the bucket's gradients.  The flat
    staging copy, the reduction and its average are all dead after it, so
    a pool takes them back."""
    if pool is not None:
        pool.restock(flat)
    averaged = reduced / size
    offset = 0
    for p in bucket:
        n = p.grad.size
        p.grad.payload[...] = averaged[offset : offset + n].reshape(p.grad.shape)
        offset += n
    if pool is not None:
        pool.restock(reduced)
        pool.restock(averaged)


def _spec_flat(bucket: Sequence[Parameter]) -> Optional[SpecArray]:
    """The flat float32 stand-in a bucket with a spec-mode gradient puts on
    the wire (same bytes as the gradients), or ``None`` when every gradient
    is materialized.  A plain loop: it runs once per bucket per rank."""
    nbytes, spec = 0, False
    for p in bucket:
        g = p.grad.payload
        nbytes += g.nbytes
        if type(g) is SpecArray:
            spec = True
    return SpecArray((nbytes // 4,), "float32") if spec else None


def _flat_bucket(bucket: Sequence[Parameter], pool: Optional[Any]) -> np.ndarray:
    """Flatten a bucket's gradients into one staging buffer, pooled when the
    dtypes are uniform (``np.concatenate(..., out=)`` is bitwise identical
    to the allocating form; mixed dtypes fall back so promotion semantics
    are untouched)."""
    grads = [p.grad.numpy().reshape(-1) for p in bucket]
    first_dtype = grads[0].dtype
    if pool is not None and all(g.dtype == first_dtype for g in grads[1:]):
        flat = pool.loan((sum(g.size for g in grads),), first_dtype, "ddp.flat")
        np.concatenate(grads, out=flat)
        return flat
    return np.concatenate(grads)


class DistributedDataParallel(Module, ReadyCount):
    """DDP wrapper: forward delegates; ``sync()`` averages gradients across
    the DATA group (call it between ``backward`` and ``optimizer.step``; the
    Engine does this automatically).

    ``overlap=True`` (default: follow ``runtime.comm_overlap``) switches to
    hook-driven bucket flushing (:class:`ReadyCount`): gradient buckets are
    laid out over reversed parameter-registration order and each bucket's
    all-reduce is issued nonblocking as soon as its last gradient is
    accumulated, overlapping communication with the rest of backward.
    ``sync()`` flushes stragglers, waits the handles in issue order and
    unpacks.  Models that reuse a parameter in several ops (tied weights) or
    accumulate over multiple backwards must run with ``overlap=False``.
    """

    def __init__(
        self,
        module: Module,
        pc: ParallelContext,
        bucket_mb: float = 25.0,
        overlap: Optional[bool] = None,
    ) -> None:
        super().__init__()
        self.module = module
        self.pc = pc
        self.bucket_mb = bucket_mb
        self.comm = pc.comm(ParallelMode.DATA)
        if overlap is None:
            overlap = getattr(self.comm.group.runtime, "comm_overlap", False)
        self.overlap = bool(overlap) and self.comm.size > 1
        self._buckets: List[List[Parameter]] = []
        self._pending: List[Tuple[int, Any]] = []
        if self.overlap:
            grad_params = [p for p in self.module.parameters() if p.requires_grad]
            # gradients become ready back to front during backward, so bucket
            # over reversed registration order to flush early buckets early
            self._buckets = _bucketize(
                list(reversed(grad_params)), int(self.bucket_mb * MB)
            )
            self._arm(self._buckets)

    def forward(self, *args, **kwargs):
        return self.module(*args, **kwargs)

    # -- overlap path ------------------------------------------------------

    def _flush(self, bi: int) -> None:
        self._flushed[bi] = True
        bucket = [p for p in self._buckets[bi] if p.grad is not None]
        if not bucket:
            return
        flat: Any = _spec_flat(bucket)
        if flat is None:
            flat = _flat_bucket(bucket, self.comm.group.runtime.buffer_pool)
        self._pending.append((bi, self.comm.iallreduce(flat), flat))

    def sync(self) -> None:
        if not self.overlap:
            sync_gradients(
                self.module.parameters(), self.comm, bucket_mb=self.bucket_mb
            )
            return
        self._flush_rest()
        pool = self.comm.group.runtime.buffer_pool
        for bi, handle, flat in self._pending:
            reduced = handle.wait()
            if type(reduced) is not SpecArray:  # a spec bucket has nothing to unpack
                _unpack_averaged([p for p in self._buckets[bi] if p.grad is not None],
                                 reduced, flat, self.comm.size, pool)
        self._pending.clear()
        self._rearm()


def shard_batch(batch: np.ndarray, pc: ParallelContext) -> np.ndarray:
    """Keep this data-parallel rank's slice of a global batch (axis 0)."""
    dp = pc.data_size
    if dp == 1:
        return batch
    if batch.shape[0] % dp != 0:
        raise ValueError(f"global batch {batch.shape[0]} not divisible by dp={dp}")
    n = batch.shape[0] // dp
    return batch[pc.dp_rank * n : (pc.dp_rank + 1) * n]
