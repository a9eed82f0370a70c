"""Simulated devices and their memory pools.

A :class:`Device` models one accelerator (or a host CPU) with

* a :class:`MemoryPool` that tracks allocated bytes, the high-water mark and
  raises :class:`DeviceOutOfMemoryError` on exhaustion — the substrate for
  the paper's memory range tests (Fig 8) and OOM-bounded batch searches
  (Figs 11-13), and
* a compute-rate model (``peak_flops`` per dtype and an efficiency factor)
  used by the simulated clock to charge compute time.

Memory accounting is exact in both materialized and spec execution modes:
a :class:`Storage` charges the pool of the device it lives on when it is
created and returns the bytes when it is released or dropped.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Dict

from repro.utils.units import GB, format_bytes


class DeviceOutOfMemoryError(MemoryError):
    """Raised when an allocation would exceed a device's memory capacity."""

    def __init__(self, device: "Device", requested: int) -> None:
        self.device = device
        self.requested = requested
        super().__init__(
            f"{device.name}: out of memory allocating "
            f"{format_bytes(requested)} "
            f"(allocated {format_bytes(device.memory.allocated)} / "
            f"capacity {format_bytes(device.memory.capacity)})"
        )


class DeviceKind(enum.Enum):
    GPU = "gpu"
    CPU = "cpu"


class MemoryPool:
    """Byte-accurate allocator bookkeeping for one device.

    Thread-safe: in SPMD execution multiple rank threads may touch the CPU
    pool concurrently.  Allocations are tagged so peak memory can be broken
    down into model data vs non-model data, mirroring the paper's
    terminology (§1).  Bytes enter and leave the ledger only through a
    :class:`Storage`; :meth:`reset` starts a new ledger generation, and a
    storage born in an older one returns nothing to it.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._allocated = 0
        self._peak = 0
        self._by_tag: Dict[str, int] = {}
        self._generation = 0

    @property
    def allocated(self) -> int:
        return self._allocated

    @property
    def peak(self) -> int:
        return self._peak

    @property
    def free(self) -> int:
        return self.capacity - self._allocated

    def breakdown(self) -> Dict[str, int]:
        """Currently allocated bytes per tag."""
        with self._lock:
            return dict(self._by_tag)

    def reset_peak(self) -> None:
        with self._lock:
            self._peak = self._allocated

    def copy_from(self, other: "MemoryPool") -> None:
        """Read what ``other`` reads: allocated bytes, peak and tags."""
        with other._lock:
            allocated, peak, by_tag = other._allocated, other._peak, dict(other._by_tag)
        with self._lock:
            self._allocated, self._peak, self._by_tag = allocated, peak, by_tag

    def reset(self) -> None:
        """Empty the ledger (between experiments).  Storages still alive
        keep their bytes out of the new ledger: releasing one later
        returns nothing."""
        with self._lock:
            self._generation += 1
            self._allocated = 0
            self._peak = 0
            self._by_tag.clear()


class Storage:
    """A reference-counted byte allocation on one device: the pool's
    ledger entry.

    Creating one charges the pool, under its lock, and raises
    :class:`DeviceOutOfMemoryError` naming ``device`` when the bytes do not
    fit.  The bytes go back exactly once: on :meth:`release` or when the
    last reference drops, whichever comes first.  ``alive`` is set only
    after the charge succeeded, so an allocation that raised has nothing
    to return; one born before a :meth:`MemoryPool.reset` has nothing to
    return either.
    """

    __slots__ = ("device", "nbytes", "tag", "alive", "generation")

    def __init__(self, device: "Device", nbytes: int, tag: str = "activation") -> None:
        self.alive = False
        self.device = device
        self.nbytes = nbytes = int(nbytes)
        self.tag = tag
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        pool = device.memory
        with pool._lock:
            allocated = pool._allocated + nbytes
            if allocated > pool.capacity:
                raise DeviceOutOfMemoryError(device, nbytes)
            pool._allocated = allocated
            by_tag = pool._by_tag
            by_tag[tag] = by_tag.get(tag, 0) + nbytes
            if allocated > pool._peak:
                pool._peak = allocated
            self.generation = pool._generation
        self.alive = True

    def release(self) -> None:
        """Return the bytes to the pool now (idempotent)."""
        if self.alive:
            self.alive = False
            pool = self.device.memory
            with pool._lock:
                if self.generation == pool._generation:
                    pool._allocated -= self.nbytes
                    pool._by_tag[self.tag] -= self.nbytes

    __del__ = release


@dataclass
class Device:
    """One simulated accelerator or host CPU.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"gpu3"`` or ``"cpu0"``.
    kind:
        GPU or CPU.
    memory_capacity:
        Bytes of device memory.
    peak_flops:
        Map dtype name -> peak FLOP/s (e.g. ``{"float16": 312e12}``).
    efficiency:
        Achievable fraction of peak for dense matmul (model-flops
        utilisation); realistic training lands at 0.3-0.6.
    node:
        Index of the physical node hosting this device (for topology).
    """

    name: str
    kind: DeviceKind
    memory_capacity: int
    peak_flops: Dict[str, float] = field(
        default_factory=lambda: {"float16": 312e12, "float32": 19.5e12}
    )
    efficiency: float = 0.45
    node: int = 0
    memory: MemoryPool = field(init=False)

    def __post_init__(self) -> None:
        self.memory = MemoryPool(self.memory_capacity)

    def state(self) -> tuple:
        """What a program can tell of this device short of its name and
        node: its spec and its pool's ledger.  Ranks whose devices agree
        here run one program alike (DESIGN §4ab)."""
        pool = self.memory
        with pool._lock:
            ledger = (pool._allocated, pool._peak, sorted(pool._by_tag.items()))
        return (self.kind, self.memory_capacity, sorted(self.peak_flops.items()),
                self.efficiency, pool.capacity, ledger)

    def flops_per_second(self, dtype: str = "float16") -> float:
        """Effective (efficiency-discounted) FLOP/s for ``dtype``."""
        peak = self.peak_flops.get(dtype)
        if peak is None:
            peak = min(self.peak_flops.values())
        return peak * self.efficiency

    def compute_seconds(self, flops: float, dtype: str = "float16") -> float:
        """Simulated seconds to execute ``flops`` floating point operations."""
        if flops <= 0:
            return 0.0
        return flops / self.flops_per_second(dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Device({self.name}, {self.kind.value}, "
            f"{format_bytes(self.memory_capacity)}, node={self.node})"
        )


def a100(name: str, node: int = 0, memory_gb: int = 80) -> Device:
    """NVIDIA A100 preset (Systems I-III)."""
    return Device(
        name=name,
        kind=DeviceKind.GPU,
        memory_capacity=memory_gb * GB,
        peak_flops={"float16": 312e12, "float32": 19.5e12},
        efficiency=0.45,
        node=node,
    )


def p100(name: str, node: int = 0, memory_gb: int = 16) -> Device:
    """NVIDIA P100 preset (System IV)."""
    return Device(
        name=name,
        kind=DeviceKind.GPU,
        memory_capacity=memory_gb * GB,
        peak_flops={"float16": 18.7e12, "float32": 9.3e12},
        efficiency=0.40,
        node=node,
    )


def host_cpu(name: str, node: int = 0, memory_gb: int = 512, cores: int = 64) -> Device:
    """Host CPU preset: large memory, modest FLOP rate.

    The Adam update rate on CPU is derived from this FLOP rate; it is the
    bottleneck DeepSpeed's CPU-Adam design works around (§3.2).
    """
    return Device(
        name=name,
        kind=DeviceKind.CPU,
        memory_capacity=memory_gb * GB,
        peak_flops={"float32": cores * 50e9, "float16": cores * 50e9},
        efficiency=0.5,
        node=node,
    )
