"""Dual-mode primitive array operations.

Every function here accepts :class:`numpy.ndarray` or :class:`SpecArray`
payloads and returns the same kind: real arithmetic when materialized,
shape inference when spec.  The autograd Functions in :mod:`ops` are written
once against these primitives and therefore run identically in both modes.

Spec mode never enters numpy: shapes are inferred on plain tuples
(:func:`_broadcast`, :func:`_basic_index_shape`; both checked against numpy
by property tests), and a SpecArray is an immutable value, so a
shape-preserving op hands its input back.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.comm.payload import Payload, SpecArray


def _broadcast(sa: Tuple[int, ...], sb: Tuple[int, ...]) -> Tuple[int, ...]:
    """``np.broadcast_shapes(sa, sb)`` on plain tuples."""
    if len(sa) < len(sb):
        sa, sb = sb, sa
    lead = len(sa) - len(sb)
    out = list(sa)
    for i, b in enumerate(sb, lead):
        a = out[i]
        if a != b:
            if a == 1:
                out[i] = b
            elif b != 1:
                raise ValueError(f"shape mismatch: cannot broadcast {sa} with {sb}")
    return tuple(out)


# -- elementwise binary -------------------------------------------------------


def _binary(a: Payload, b: Payload, fn) -> Payload:
    if type(a) is SpecArray or type(b) is SpecArray:
        sa, sb = a.shape, b.shape
        da = a.dtype
        return SpecArray(
            sa if sa == sb else _broadcast(sa, sb),
            da if da == b.dtype else np.result_type(da, b.dtype),
        )
    return fn(a, b)


def padd(a: Payload, b: Payload) -> Payload:
    return _binary(a, b, np.add)


def psub(a: Payload, b: Payload) -> Payload:
    return _binary(a, b, np.subtract)


def pmul(a: Payload, b: Payload) -> Payload:
    return _binary(a, b, np.multiply)


def pdiv(a: Payload, b: Payload) -> Payload:
    return _binary(a, b, np.divide)


# -- elementwise unary ---------------------------------------------------------


def _unary(a: Payload, fn) -> Payload:
    return a if type(a) is SpecArray else fn(a)


def pneg(a: Payload) -> Payload:
    return _unary(a, np.negative)


def ppow(a: Payload, exponent: float) -> Payload:
    return _unary(a, lambda x: np.power(x, exponent))


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_inner(x: np.ndarray) -> np.ndarray:
    """``tanh``'s argument in the tanh approximation of GELU.

    The cube is a product, not ``x**3``: numpy's ``power`` takes a scalar
    path for negative bases (~100x slower than its SIMD loop on positive
    ones) and rounds differently on each sign, while each multiply is
    correctly rounded and sign-symmetric, so the term is odd bit for bit
    (DESIGN §4v)."""
    return _GELU_C * (x + 0.044715 * (x * x * x))


def pgelu(a: Payload) -> Payload:
    return _unary(a, lambda x: 0.5 * x * (1.0 + np.tanh(_gelu_inner(x))))


def _gelu_grad(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    t = np.tanh(_gelu_inner(x))
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return grad * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner)


def pgelu_grad(x: Payload, grad: Payload) -> Payload:
    """d gelu(x)/dx * grad using the tanh approximation."""
    return _binary(x, grad, _gelu_grad)


# -- matmul ---------------------------------------------------------------------


def matmul_shape(sa: Tuple[int, ...], sb: Tuple[int, ...]) -> Tuple[int, ...]:
    """Shape of ``a @ b`` under numpy batched-matmul rules (2D+ operands)."""
    if len(sa) < 2 or len(sb) < 2:
        raise ValueError(f"matmul needs >=2D operands, got {sa} @ {sb}")
    if sa[-1] != sb[-2]:
        raise ValueError(f"matmul inner-dim mismatch: {sa} @ {sb}")
    ba, bb = sa[:-2], sb[:-2]
    batch = ba if ba == bb else _broadcast(ba, bb)
    return batch + (sa[-2], sb[-1])


def matmul_flops(sa: Tuple[int, ...], sb: Tuple[int, ...]) -> float:
    out = matmul_shape(sa, sb)
    m, n = out[-2], out[-1]
    k = sa[-1]
    batch = math.prod(out[:-2]) if len(out) > 2 else 1
    return 2.0 * batch * m * n * k


def pmatmul(a: Payload, b: Payload) -> Payload:
    if type(a) is SpecArray or type(b) is SpecArray:
        da = a.dtype
        return SpecArray(
            matmul_shape(a.shape, b.shape),
            da if da == b.dtype else np.result_type(da, b.dtype),
        )
    return np.matmul(a, b)


# -- shape ops --------------------------------------------------------------------


def preshape(a: Payload, shape: Sequence[int]) -> Payload:
    return a.reshape(tuple(shape))


def ptranspose(a: Payload, axes: Optional[Sequence[int]] = None) -> Payload:
    if type(a) is SpecArray:
        shape = a.shape
        if axes is None:
            return SpecArray(shape[::-1], a.dtype)
        out = []
        for i in axes:
            out.append(shape[i])
        return SpecArray(tuple(out), a.dtype)
    return np.transpose(a, axes)


def pswapaxes(a: Payload, ax1: int, ax2: int) -> Payload:
    axes = list(range(len(a.shape)))
    axes[ax1], axes[ax2] = axes[ax2], axes[ax1]
    return ptranspose(a, axes)


def pconcat(chunks: Sequence[Payload], axis: int) -> Payload:
    first = chunks[0]
    if any(type(c) is SpecArray for c in chunks):
        shape = list(first.shape)
        shape[axis] = sum(c.shape[axis] for c in chunks)
        return SpecArray(tuple(shape), first.dtype)
    return np.concatenate(list(chunks), axis=axis)


def psplit(a: Payload, parts: int, axis: int) -> list:
    if a.shape[axis] % parts != 0:
        raise ValueError(f"axis {axis} of {a.shape} not divisible by {parts}")
    if type(a) is SpecArray:
        shape = list(a.shape)
        shape[axis] //= parts
        return [SpecArray(tuple(shape), a.dtype)] * parts
    return [np.ascontiguousarray(c) for c in np.split(a, parts, axis=axis)]


def _basic_index_shape(shape: Tuple[int, ...], idx) -> Optional[Tuple[int, ...]]:
    """Shape of ``np.empty(shape)[idx]`` for basic indexing — ints, slices,
    ``Ellipsis`` and ``None`` — or ``None`` when ``idx`` holds anything else
    (arrays, lists, bools, numpy integers)."""
    if type(idx) is not tuple:
        idx = (idx,)
    consumed, dots = 0, 0
    for i in idx:
        if type(i) is int or type(i) is slice:
            consumed += 1
        elif i is Ellipsis:
            dots += 1
        elif i is not None:
            return None
    if dots > 1:
        raise IndexError("an index can only have a single ellipsis ('...')")
    if consumed > len(shape):
        raise IndexError(f"too many indices for array: {idx} into shape {shape}")
    out, dim = [], 0
    for i in idx:
        if i is None:
            out.append(1)
        elif i is Ellipsis:
            stop = dim + len(shape) - consumed
            out.extend(shape[dim:stop])
            dim = stop
        else:
            n = shape[dim]
            if type(i) is slice:
                out.append(len(range(*i.indices(n))))
            elif not -n <= i < n:
                raise IndexError(f"index {i} is out of bounds for axis {dim} with size {n}")
            dim += 1
    return tuple(out) + shape[dim:]


def pslice(a: Payload, idx) -> Payload:
    if type(a) is SpecArray:
        shape = _basic_index_shape(a.shape, idx)
        if shape is None:
            # advanced indexing: let numpy work it out on a zero-stride dummy
            dummy = np.broadcast_to(np.zeros((), dtype=a.dtype), a.shape)
            shape = dummy[idx].shape
        return SpecArray(shape, a.dtype)
    return a[idx]


# -- reductions --------------------------------------------------------------------


def _reduced_shape(shape, axis, keepdims) -> Tuple[int, ...]:
    if axis is None:
        return tuple([1] * len(shape)) if keepdims else ()
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    out = []
    for i, s in enumerate(shape):
        if i in axes:
            if keepdims:
                out.append(1)
        else:
            out.append(s)
    return tuple(out)


def psum(a: Payload, axis=None, keepdims=False) -> Payload:
    if type(a) is SpecArray:
        return SpecArray(_reduced_shape(a.shape, axis, keepdims), a.dtype)
    return np.sum(a, axis=axis, keepdims=keepdims)


def pmean(a: Payload, axis=None, keepdims=False) -> Payload:
    if type(a) is SpecArray:
        return SpecArray(_reduced_shape(a.shape, axis, keepdims), a.dtype)
    return np.mean(a, axis=axis, keepdims=keepdims)


# -- softmax family ------------------------------------------------------------------


def psoftmax(a: Payload, axis: int = -1) -> Payload:
    if type(a) is SpecArray:
        return a
    shifted = a - np.max(a, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def plog_softmax(a: Payload, axis: int = -1) -> Payload:
    if type(a) is SpecArray:
        return a
    shifted = a - np.max(a, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


# -- broadcasting helper ---------------------------------------------------------------


def unbroadcast(grad: Payload, shape: Tuple[int, ...]) -> Payload:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if tuple(grad.shape) == tuple(shape):
        return grad
    if type(grad) is SpecArray:
        return SpecArray(shape, grad.dtype)
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def pzeros(shape: Sequence[int], dtype, spec: bool) -> Payload:
    if spec:
        return SpecArray(tuple(shape), dtype)
    return np.zeros(tuple(shape), dtype=dtype)


def pones_like(a: Payload) -> Payload:
    if type(a) is SpecArray:
        return a
    return np.ones_like(a)
