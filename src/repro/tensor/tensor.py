"""Tensor, over a :class:`~repro.cluster.device.Storage`.

Storage lifetime drives memory accounting: creating a storage registers its
bytes with the owning device's pool (raising
:class:`~repro.cluster.device.DeviceOutOfMemoryError` when over capacity);
releasing it — explicitly or by garbage collection — returns them.  Views
(reshape/transpose/slices) share storage, so only genuinely new buffers
count, mirroring a caching GPU allocator closely enough for the paper's
"max allocated memory" range tests (Fig 8).
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Tuple, Union

import numpy as np

from repro.cluster.device import Device, DeviceKind, Storage
from repro.comm.payload import Payload, SpecArray, is_spec
from repro.runtime.spmd import rank_context
from repro.utils.units import GB

_fallback_lock = threading.Lock()
_fallback_device: Optional[Device] = None


def default_device() -> Device:
    """The device tensors land on when none is given.

    Inside an SPMD program this is the calling rank's GPU; outside (plain
    unit tests, notebooks) it is a lazily-created host device with a large
    pool so accounting still works.
    """
    rc = rank_context()
    if rc is not None:
        return rc.device
    global _fallback_device
    with _fallback_lock:
        if _fallback_device is None:
            _fallback_device = Device(
                name="local", kind=DeviceKind.CPU, memory_capacity=256 * GB
            )
        return _fallback_device


def _as_payload(
    data: Any, dtype: Optional[Union[str, np.dtype]], materialize: bool
) -> Payload:
    if isinstance(data, SpecArray):
        return data if dtype is None else data.astype(dtype)
    if isinstance(data, Tensor):
        raise TypeError("wrap of Tensor in Tensor; use .payload or view methods")
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    if not materialize:
        return SpecArray(arr.shape, arr.dtype)
    return arr


class Tensor:
    """A device tensor, optionally tracked by autograd.

    Parameters
    ----------
    data:
        array-like, :class:`numpy.ndarray` or :class:`SpecArray`.
    dtype:
        storage dtype (``float16`` storage is accounted at 2 bytes/elem even
        though math runs in whatever numpy promotes to).
    device:
        target :class:`Device`; defaults to the current rank's GPU.
    requires_grad:
        include in autograd.
    tag:
        memory-pool tag (``"param"``, ``"grad"``, ``"optim"``,
        ``"activation"``) for peak-memory breakdowns.
    is_view:
        storage is shared with another tensor — do not allocate.
    """

    __slots__ = (
        "payload",
        "device",
        "storage",
        "requires_grad",
        "grad",
        "grad_fn",
        "grad_hook",
        "tag",
        "name",
        "__weakref__",
    )

    def __init__(
        self,
        data: Any,
        dtype: Optional[Union[str, np.dtype]] = None,
        device: Optional[Device] = None,
        requires_grad: bool = False,
        tag: str = "activation",
        base: Optional["Tensor"] = None,
        materialize: Optional[bool] = None,
    ) -> None:
        if materialize is None or device is None:
            rc = rank_context()
            if materialize is None:
                materialize = rc is None or rc.materialize
            if device is None:
                device = rc.device if rc is not None else default_device()
        if type(data) is not SpecArray or dtype is not None:
            data = _as_payload(data, dtype, materialize)
        self.payload: Payload = data
        self.device = device
        self.tag = tag
        if base is not None:
            self.storage = base.storage  # view: share allocation
        else:
            self.storage = Storage(device, self.payload.nbytes, tag)
        self.requires_grad = requires_grad
        self.grad: Optional[Tensor] = None
        self.grad_fn: Optional[Any] = None  # the FnCtx of the op that made it
        # called with this tensor after every leaf-gradient accumulation
        # (DDP overlap uses it to flush ready buckets during backward)
        self.grad_hook: Optional[Any] = None
        self.name: Optional[str] = None

    @staticmethod
    def _wrap(
        payload: Any,
        device: Device,
        materialize: bool,
        storage: Optional[Storage] = None,
        tag: str = "activation",
    ) -> "Tensor":
        """Internal constructor (``Function.apply`` makes the same stores
        inline): the caller has resolved the device and the execution mode,
        so nothing here reads the rank context, and a payload already in its
        final form is taken as is.  ``storage`` shares an existing
        allocation; ``None`` allocates."""
        if type(payload) is not SpecArray and not (materialize and type(payload) is np.ndarray):
            payload = _as_payload(payload, None, materialize)
        t = Tensor.__new__(Tensor)
        t.payload = payload
        t.device = device
        t.tag = tag
        t.storage = Storage(device, payload.nbytes, tag) if storage is None else storage
        t.requires_grad = False
        t.grad = t.grad_fn = t.grad_hook = t.name = None
        return t

    # -- basic properties ------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.payload.shape)

    @property
    def dtype(self) -> np.dtype:
        return self.payload.dtype

    @property
    def ndim(self) -> int:
        return len(self.payload.shape)

    @property
    def size(self) -> int:
        return int(self.payload.size)

    @property
    def nbytes(self) -> int:
        return int(self.payload.nbytes)

    @property
    def materialized(self) -> bool:
        return not is_spec(self.payload)

    @property
    def data(self) -> Optional[np.ndarray]:
        """The numpy array, or ``None`` in spec mode."""
        return None if is_spec(self.payload) else self.payload

    def numpy(self) -> np.ndarray:
        if is_spec(self.payload):
            raise RuntimeError("spec-mode tensor has no materialized data")
        return self.payload

    def item(self) -> float:
        return float(self.numpy().reshape(-1)[0])

    def release(self) -> None:
        """Free this tensor's storage immediately."""
        self.storage.release()

    def detach(self) -> "Tensor":
        """A view sharing storage, cut out of the autograd graph."""
        return Tensor._wrap(self.payload, self.device, True, self.storage, tag=self.tag)

    def zero_grad(self) -> None:
        self.grad = None

    # backward() is bound by repro.autograd.engine, and the operators,
    # reshape/transpose/sum/mean and indexing by repro.autograd.ops, when
    # they are imported: they import this module, so it cannot import them

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "spec" if is_spec(self.payload) else "data"
        grad = ", grad_fn" if self.grad_fn is not None else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, {mode}{grad})"


# -- factory helpers --------------------------------------------------------------


def full(shape, value, dtype="float32", requires_grad=False, device=None, tag="activation") -> Tensor:
    shape = tuple(int(s) for s in shape)
    rc = rank_context()
    if rc is None or rc.materialize:
        data: Any = np.full(shape, value, dtype=np.dtype(dtype))
    else:
        data = SpecArray(shape, dtype)
    return Tensor(data, device=device, requires_grad=requires_grad, tag=tag)


def zeros(shape, dtype="float32", requires_grad=False, device=None, tag="activation") -> Tensor:
    return full(shape, 0.0, dtype, requires_grad, device, tag)
