"""Pooled numpy scratch buffers for the simulator's comm hot loop.

Materialized collectives churn large flat ndarrays every round: DDP bucket
flats, reduction accumulators, ZeRO chunk staging buffers.  All of them are
fully overwritten before use and dead right after the round, so a
``(shape, dtype)``-keyed free list removes the allocator from the hot path
without touching simulated results — a loaned buffer's *contents* are always
written before they are read, so pooled and unpooled runs stay bitwise
identical (relation 3 of ``tests/test_conformance.py``).

Sanitizer interaction: the :class:`~repro.sanitize.sanitizer.BufferRaceDetector`
freezes in-flight payloads (``writeable=False``) and keeps cross-rank-aliased
buffers frozen as loans until ``final_release``.  :meth:`BufferPool.restock`
therefore *drops* any buffer that is still frozen instead of pooling it —
the detector's loan bookkeeping (and its end-of-run mutation check) stays
intact, and a frozen buffer can never be handed out for writing.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

import numpy as np


class BufferPoolLeak(RuntimeError):
    """A loaned buffer was neither restocked nor adopted by end of run."""

    def __init__(self, labels: List[str]) -> None:
        self.labels = list(labels)
        super().__init__(
            "buffer pool loans were never returned: " + ", ".join(self.labels)
        )


class BufferPool:
    """Thread-safe free list of flat scratch ndarrays, keyed shape x dtype.

    Protocol::

        buf = pool.loan(shape, dtype, "ddp.flat")   # uninitialized contents!
        ... fully overwrite buf, hand it to a collective ...
        pool.restock(buf)       # round done, buffer dead -> reuse it
        # or, if the buffer escapes to user code (e.g. becomes a result):
        pool.adopt(buf)         # ownership leaves the pool, no reuse

    ``restock`` also accepts buffers the pool never loaned (donations from
    call sites that know their array is dead); unsuitable arrays — frozen,
    views, non-contiguous — are silently dropped rather than pooled.
    """

    #: free-list entries kept per (shape, dtype) key; collectives need at
    #: most a handful of same-shaped scratch buffers alive at once
    MAX_PER_KEY = 8

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: Dict[Tuple[Tuple[int, ...], object], List[np.ndarray]] = {}
        #: id(arr) -> (label, arr); the arr reference keeps the id stable
        self._outstanding: Dict[int, Tuple[str, np.ndarray]] = {}
        self.loans = 0
        self.reuses = 0

    def loan(self, shape, dtype, label: str) -> np.ndarray:
        """A buffer of ``shape``/``dtype`` with UNDEFINED contents."""
        key = (tuple(shape), np.dtype(dtype))
        with self._lock:
            self.loans += 1
            bucket = self._free.get(key)
            if bucket:
                arr = bucket.pop()
                self.reuses += 1
            else:
                arr = np.empty(key[0], dtype=key[1])
            self._outstanding[id(arr)] = (label, arr)
        return arr

    def restock(self, arr) -> None:
        """Return a dead buffer to the free list (loan or donation)."""
        if not isinstance(arr, np.ndarray):
            return
        with self._lock:
            self._outstanding.pop(id(arr), None)
            if (
                not arr.flags.writeable      # race-detector loan: keep frozen
                or arr.base is not None      # view: base may outlive the pool
                or not arr.flags.c_contiguous
            ):
                return
            key = (arr.shape, arr.dtype)
            bucket = self._free.setdefault(key, [])
            if len(bucket) < self.MAX_PER_KEY:
                bucket.append(arr)

    def adopt(self, arr) -> None:
        """The loan escaped to user code: forget it (no reuse, no leak)."""
        if isinstance(arr, np.ndarray):
            with self._lock:
                self._outstanding.pop(id(arr), None)

    def reset(self) -> None:
        """Forget all state (between runs, or after an aborted program)."""
        with self._lock:
            self._free.clear()
            self._outstanding.clear()

    def check_leaks(self) -> None:
        """Raise :class:`BufferPoolLeak` naming every unreturned loan."""
        with self._lock:
            if self._outstanding:
                labels = sorted(lbl for lbl, _ in self._outstanding.values())
                self._outstanding.clear()
                raise BufferPoolLeak(labels)
