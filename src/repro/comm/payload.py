"""Communication payloads.

Materialized programs communicate :class:`numpy.ndarray`; spec-mode programs
communicate :class:`SpecArray` — a shape/dtype stand-in whose byte size is
accounted identically, so the cost model and counters see exactly the same
traffic in both modes.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np


# np.dtype(...) construction is measurable at SpecArray churn rates; cache
# the canonical instance per spelling (np.dtype objects are interned-like
# singletons for builtin types, so identity reuse is safe)
_DTYPE_CACHE: dict = {}


def _as_dtype(dtype) -> np.dtype:
    # isinstance, not ``type(dtype) is np.dtype``: dtype instances are
    # instances of per-type subclasses (numpy.dtypes.Float16DType, ...)
    if isinstance(dtype, np.dtype):
        return dtype
    try:
        return _DTYPE_CACHE[dtype]
    except (KeyError, TypeError):
        dt = np.dtype(dtype)
        try:
            _DTYPE_CACHE[dtype] = dt
        except TypeError:
            pass
        return dt


# np.dtype.name runs Python inside numpy on every access (``_name_get`` ->
# ``issubdtype`` -> two ``issubclass_``); every layer that names a dtype reads
# this one memo, a pure function of the dtype with nothing to invalidate.
# Hot paths read it inline; the rest call ``dtype_name``
DTYPE_NAMES: dict = {}


def dtype_name(dtype) -> str:
    """``np.dtype(dtype).name``, through :data:`DTYPE_NAMES`."""
    dtype = _as_dtype(dtype)
    name = DTYPE_NAMES.get(dtype)
    if name is None:
        name = DTYPE_NAMES[dtype] = dtype.name
    return name


class SpecArray:
    """A shape+dtype stand-in for an ndarray (no storage).

    An immutable value: ``size`` and ``nbytes`` are computed once here and
    are plain attributes, and ops and collectives hand the same instance to
    several tensors and ranks — never assign to its fields.  Supports the
    handful of shape manipulations the parallel layers perform on
    communicated buffers (reshape/concat-like derivations happen in the
    communicator itself).
    """

    __slots__ = ("shape", "dtype", "size", "nbytes")

    def __init__(self, shape: Tuple[int, ...], dtype: Union[str, np.dtype] = "float32") -> None:
        if type(shape) is not tuple:
            shape = tuple(shape)
        size = 1
        for s in shape:
            if type(s) is not int or s < 0:
                # np.intp entries pay for normalization and a negative
                # extent is refused as numpy refuses it; plain non-negative
                # int tuples (the common case) pass through untouched
                shape = tuple(int(x) for x in shape)
                if min(shape) < 0:
                    raise ValueError("negative dimensions are not allowed")
                size = math.prod(shape)
                break
            size *= s
        if not isinstance(dtype, np.dtype):
            try:
                dtype = _DTYPE_CACHE[dtype]
            except (KeyError, TypeError):  # first use, or unhashable
                dtype = _as_dtype(dtype)
        self.shape = shape
        self.dtype = dtype
        self.size = size
        self.nbytes = size * dtype.itemsize

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def reshape(self, *shape) -> "SpecArray":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = shape[0]
        if -1 in shape:
            known = 1
            for s in shape:
                if s != -1:
                    known *= int(s)
            fill = self.size // known
            shape = [fill if s == -1 else s for s in shape]
        out = SpecArray(shape, self.dtype)
        if out.size != self.size:
            raise ValueError(f"cannot reshape {self.shape} -> {out.shape}")
        return out

    def astype(self, dtype) -> "SpecArray":
        return SpecArray(self.shape, dtype)

    def copy(self) -> "SpecArray":
        return SpecArray(self.shape, self.dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpecArray(shape={self.shape}, dtype={self.dtype.name})"


Payload = Union[np.ndarray, SpecArray]


def is_spec(x: Payload) -> bool:
    return isinstance(x, SpecArray)
