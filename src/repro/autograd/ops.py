"""Differentiable tensor operations.

Each op is a :class:`Function` subclass plus a small dispatcher that accepts
Python scalars where natural.  FLOP conventions (charged to the simulated
clock): matmul ``2·m·n·k`` forward and twice that backward (two matmuls);
elementwise ops ``~size``; normalization/softmax a small constant multiple
of ``size``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.function import FnCtx, Function
from repro.autograd import payload_ops as P
from repro.comm.payload import Payload, SpecArray
from repro.runtime.spmd import rank_context
from repro.tensor.tensor import Tensor

Scalar = Union[int, float]


def _const(value, like: Tensor) -> Tensor:
    """Wrap a scalar/array as a non-grad Tensor matching ``like``'s mode."""
    payload = like.payload
    if type(payload) is SpecArray:
        shape = () if isinstance(value, (int, float)) else np.shape(value)
        return Tensor._wrap(SpecArray(shape, payload.dtype), like.device, False)
    return Tensor(np.asarray(value, dtype=payload.dtype), device=like.device)


# ---------------------------------------------------------------------------
# elementwise binary
# ---------------------------------------------------------------------------


class Add(Function):
    PURE = True

    @staticmethod
    def forward(ctx: FnCtx, a: Tensor, b: Tensor) -> Payload:
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        ctx.flops = max(a.size, b.size)
        return P.padd(a.payload, b.payload)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        return P.unbroadcast(g, ctx.a_shape), P.unbroadcast(g, ctx.b_shape)


class Sub(Function):
    PURE = True

    @staticmethod
    def forward(ctx: FnCtx, a: Tensor, b: Tensor) -> Payload:
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        ctx.flops = max(a.size, b.size)
        return P.psub(a.payload, b.payload)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        return P.unbroadcast(g, ctx.a_shape), P.unbroadcast(P.pneg(g), ctx.b_shape)


class Mul(Function):
    PURE = True

    @staticmethod
    def forward(ctx: FnCtx, a: Tensor, b: Tensor) -> Payload:
        ctx.save_for_backward(a, b)
        ctx.flops = max(a.size, b.size)
        return P.pmul(a.payload, b.payload)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        a, b = ctx.saved_tensors
        ga = P.unbroadcast(P.pmul(g, b.payload), a.shape)
        gb = P.unbroadcast(P.pmul(g, a.payload), b.shape)
        return ga, gb


class Div(Function):
    PURE = True

    @staticmethod
    def forward(ctx: FnCtx, a: Tensor, b: Tensor) -> Payload:
        ctx.save_for_backward(a, b)
        ctx.flops = max(a.size, b.size)
        return P.pdiv(a.payload, b.payload)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        a, b = ctx.saved_tensors
        ga = P.unbroadcast(P.pdiv(g, b.payload), a.shape)
        gb_full = P.pneg(P.pdiv(P.pmul(g, a.payload), P.pmul(b.payload, b.payload)))
        return ga, P.unbroadcast(gb_full, b.shape)


def add(a: Tensor, b) -> Tensor:
    return Add.apply(a, b if isinstance(b, Tensor) else _const(b, a))


def sub(a: Tensor, b) -> Tensor:
    return Sub.apply(a, b if isinstance(b, Tensor) else _const(b, a))


def mul(a: Tensor, b) -> Tensor:
    return Mul.apply(a, b if isinstance(b, Tensor) else _const(b, a))


def div(a: Tensor, b) -> Tensor:
    return Div.apply(a, b if isinstance(b, Tensor) else _const(b, a))


# ---------------------------------------------------------------------------
# elementwise unary
# ---------------------------------------------------------------------------


class Neg(Function):
    PURE = True

    @staticmethod
    def forward(ctx: FnCtx, a: Tensor) -> Payload:
        ctx.flops = a.size
        return P.pneg(a.payload)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        return (P.pneg(g),)


class Power(Function):
    PURE = True

    @staticmethod
    def forward(ctx: FnCtx, a: Tensor, exponent: float) -> Payload:
        ctx.save_for_backward(a)
        ctx.exponent = exponent
        ctx.flops = 2 * a.size
        return P.ppow(a.payload, exponent)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        (a,) = ctx.saved_tensors
        e = ctx.exponent
        return (P.pmul(g, P.pmul(P.ppow(a.payload, e - 1), _scalar_like(e, g))),)


def _scalar_like(v: float, ref: Payload) -> Payload:
    if type(ref) is SpecArray:
        return SpecArray((), ref.dtype)
    return np.asarray(v, dtype=ref.dtype)


class Gelu(Function):
    PURE = True

    @staticmethod
    def forward(ctx: FnCtx, a: Tensor) -> Payload:
        ctx.save_for_backward(a)
        ctx.flops = 8 * a.size
        return P.pgelu(a.payload)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        (a,) = ctx.saved_tensors
        return (P.pgelu_grad(a.payload, g),)


def neg(a: Tensor) -> Tensor:
    return Neg.apply(a)


def power(a: Tensor, exponent: float) -> Tensor:
    return Power.apply(a, exponent)


def gelu(a: Tensor) -> Tensor:
    return Gelu.apply(a)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


class MatMul(Function):
    PURE = True

    @staticmethod
    def forward(ctx: FnCtx, a: Tensor, b: Tensor) -> Payload:
        ctx.save_for_backward(a, b)
        ctx.flops = P.matmul_flops(a.shape, b.shape)
        ctx.backward_flops = 2 * ctx.flops
        return P.pmatmul(a.payload, b.payload)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        a, b = ctx.saved_tensors
        ga = P.pmatmul(g, P.pswapaxes(b.payload, -1, -2))
        gb = P.pmatmul(P.pswapaxes(a.payload, -1, -2), g)
        # collapse broadcast batch dims back to operand shapes
        return P.unbroadcast(ga, a.shape), P.unbroadcast(gb, b.shape)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return MatMul.apply(a, b)


# ---------------------------------------------------------------------------
# shape manipulation (views: no new storage)
# ---------------------------------------------------------------------------


class Reshape(Function):
    PURE = True
    IS_VIEW = True

    @staticmethod
    def forward(ctx: FnCtx, a: Tensor, shape: Tuple[int, ...]) -> Payload:
        ctx.a_shape = a.shape
        return P.preshape(a.payload, shape)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        return (P.preshape(g, ctx.a_shape),)


class Transpose(Function):
    PURE = True
    IS_VIEW = True

    @staticmethod
    def forward(ctx: FnCtx, a: Tensor, axes: Tuple[int, ...]) -> Payload:
        ctx.axes = axes
        return P.ptranspose(a.payload, axes)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        # inverse permutation in pure Python: np.argsort on a 3-tuple costs
        # microseconds per call and dominated spec-mode backward wall-clock
        axes = ctx.axes
        n = len(axes)
        inverse = [0] * n
        for i, a in enumerate(axes):
            inverse[a % n] = i
        return (P.ptranspose(g, tuple(inverse)),)


class Slice(Function):
    PURE = True
    IS_VIEW = True

    @staticmethod
    def forward(ctx: FnCtx, a: Tensor, idx) -> Payload:
        ctx.a_shape = a.shape
        ctx.a_spec = type(a.payload) is SpecArray
        ctx.a_dtype = a.dtype
        ctx.idx = idx
        return P.pslice(a.payload, idx)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        if ctx.a_spec or type(g) is SpecArray:
            return (SpecArray(ctx.a_shape, ctx.a_dtype),)
        out = np.zeros(ctx.a_shape, dtype=g.dtype)
        out[ctx.idx] = g
        return (out,)


def _int_tuple(values) -> Tuple[int, ...]:
    """``values`` as a tuple of plain ints (numpy integers normalized)."""
    if len(values) == 1 and isinstance(values[0], (tuple, list)):
        values = values[0]
    for v in values:
        if type(v) is not int:
            return tuple([int(x) for x in values])
    return tuple(values)


def reshape(a: Tensor, *shape) -> Tensor:
    return Reshape.apply(a, _int_tuple(shape))


def transpose(a: Tensor, *axes) -> Tensor:
    if not axes:
        axes = range(len(a.payload.shape) - 1, -1, -1)
    return Transpose.apply(a, _int_tuple(axes))


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    axes = list(range(len(a.payload.shape)))
    axes[ax1], axes[ax2] = axes[ax2], axes[ax1]
    return Transpose.apply(a, tuple(axes))


def slice_(a: Tensor, idx) -> Tensor:
    return Slice.apply(a, idx)


def split(a: Tensor, parts: int, axis: int = 0) -> Tuple[Tensor, ...]:
    """Split into ``parts`` equal chunks along ``axis``."""
    shape = a.payload.shape
    if shape[axis] % parts != 0:
        raise ValueError(f"axis {axis} of {tuple(shape)} not divisible by {parts}")
    step = shape[axis] // parts
    out = []
    for i in range(parts):
        sl = [slice(None)] * len(shape)
        sl[axis] = slice(i * step, (i + 1) * step)
        out.append(slice_(a, tuple(sl)))
    return tuple(out)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


class Sum(Function):
    PURE = True

    @staticmethod
    def forward(ctx: FnCtx, a: Tensor, axis, keepdims: bool) -> Payload:
        ctx.a_shape = a.shape
        ctx.axis = axis
        ctx.keepdims = keepdims
        ctx.flops = a.size
        return P.psum(a.payload, axis=axis, keepdims=keepdims)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        return (_expand_reduced(g, ctx.a_shape, ctx.axis, ctx.keepdims),)


class Mean(Function):
    PURE = True

    @staticmethod
    def forward(ctx: FnCtx, a: Tensor, axis, keepdims: bool) -> Payload:
        ctx.a_shape = a.shape
        ctx.axis = axis
        ctx.keepdims = keepdims
        ctx.flops = a.size
        out = P.pmean(a.payload, axis=axis, keepdims=keepdims)
        ctx.count = a.size // max(math.prod(out.shape), 1)
        return out

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        expanded = _expand_reduced(g, ctx.a_shape, ctx.axis, ctx.keepdims)
        return (P.pdiv(expanded, _scalar_like(float(ctx.count), expanded)),)


def _expand_reduced(g: Payload, shape: Tuple[int, ...], axis, keepdims: bool) -> Payload:
    if type(g) is SpecArray:
        return SpecArray(shape, g.dtype)
    if axis is None:
        return np.broadcast_to(g.reshape([1] * len(shape)), shape).copy()
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    gg = g
    if not keepdims:
        for a in sorted(axes):
            gg = np.expand_dims(gg, a)
    return np.broadcast_to(gg, shape).copy()


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return Sum.apply(a, axis, keepdims)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return Mean.apply(a, axis, keepdims)


# ---------------------------------------------------------------------------
# softmax / losses / normalization
# ---------------------------------------------------------------------------


class Softmax(Function):
    PURE = True

    @staticmethod
    def forward(ctx: FnCtx, a: Tensor, axis: int) -> Payload:
        out = P.psoftmax(a.payload, axis=axis)
        ctx.out = out
        ctx.axis = axis
        ctx.flops = 5 * a.size
        return out

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        if type(g) is SpecArray:
            return (g,)
        s = ctx.out
        dot = np.sum(g * s, axis=ctx.axis, keepdims=True)
        return (s * (g - dot),)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    return Softmax.apply(a, axis)


class LayerNorm(Function):
    """Normalize over the last dimension with affine gamma/beta."""

    PURE = True

    @staticmethod
    def forward(ctx: FnCtx, x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Payload:
        ctx.flops = 8 * x.size
        if type(x.payload) is SpecArray:
            ctx.spec_shapes = (x.shape, gamma.shape, beta.shape)
            ctx.spec_dtype = x.dtype
            return x.payload
        mu = np.mean(x.payload, axis=-1, keepdims=True)
        var = np.var(x.payload, axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x.payload - mu) * inv
        ctx.xhat = xhat
        ctx.inv = inv
        ctx.gamma = gamma.payload
        ctx.spec_shapes = None
        return xhat * gamma.payload + beta.payload

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        if ctx.spec_shapes is not None or type(g) is SpecArray:
            xs, gs, bs = ctx.spec_shapes
            d = ctx.spec_dtype
            return SpecArray(xs, d), SpecArray(gs, d), SpecArray(bs, d)
        xhat, inv, gamma = ctx.xhat, ctx.inv, ctx.gamma
        reduce_axes = tuple(range(g.ndim - 1))
        dgamma = np.sum(g * xhat, axis=reduce_axes)
        dbeta = np.sum(g, axis=reduce_axes)
        gx = g * gamma
        dx = (
            gx - np.mean(gx, axis=-1, keepdims=True)
            - xhat * np.mean(gx * xhat, axis=-1, keepdims=True)
        ) * inv
        return dx, dgamma, dbeta


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    return LayerNorm.apply(x, gamma, beta, eps)


class Embedding(Function):
    @staticmethod
    def forward(ctx: FnCtx, weight: Tensor, indices: np.ndarray) -> Payload:
        ctx.w_shape = weight.shape
        ctx.w_dtype = weight.dtype
        ctx.indices = indices
        ctx.flops = 0.0
        if type(weight.payload) is SpecArray:
            return SpecArray(tuple(indices.shape) + (weight.shape[1],), weight.dtype)
        return weight.payload[indices]

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        if type(g) is SpecArray:
            return (SpecArray(ctx.w_shape, ctx.w_dtype),)
        grad = np.zeros(ctx.w_shape, dtype=g.dtype)
        np.add.at(grad, ctx.indices.reshape(-1), g.reshape(-1, g.shape[-1]))
        return (grad,)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Look up rows of ``weight`` by integer ``indices`` (a plain array,
    never differentiated).  In spec mode ``indices`` may be a SpecArray."""
    if isinstance(indices, Tensor):
        indices = indices.payload
    if type(weight.payload) is SpecArray and not isinstance(indices, np.ndarray):
        # spec indices: fabricate an int array shape holder
        return Embedding.apply(weight, _SpecIndices(indices.shape))
    return Embedding.apply(weight, np.asarray(indices))


class _SpecIndices:
    """Shape-only index holder for spec-mode embedding."""

    def __init__(self, shape) -> None:
        self.shape = tuple(shape)


class Dropout(Function):
    @staticmethod
    def forward(ctx: FnCtx, a: Tensor, p: float, training: bool) -> Payload:
        ctx.flops = a.size
        spec = type(a.payload) is SpecArray
        if spec or not training or p <= 0.0:
            ctx.mask = None
            return a.payload if spec else a.payload.copy()
        rc = rank_context()
        rng = rc.rng if rc is not None else np.random.default_rng()
        mask = (rng.random(a.shape) >= p).astype(a.payload.dtype) / (1.0 - p)
        ctx.mask = mask
        return a.payload * mask

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        if ctx.mask is None or type(g) is SpecArray:
            return (g,)
        return (g * ctx.mask,)


def dropout(a: Tensor, p: float, training: bool = True) -> Tensor:
    return Dropout.apply(a, p, training)


class CrossEntropy(Function):
    """Mean cross-entropy of logits [N, C] against int targets [N]."""

    PURE = True

    @staticmethod
    def forward(ctx: FnCtx, logits: Tensor, targets) -> Payload:
        ctx.flops = 8 * logits.size
        # a Tensor of class ids is a second tensor input: it gets a (None)
        # gradient of its own
        ctx.tensor_targets = isinstance(targets, Tensor)
        if type(logits.payload) is SpecArray:
            ctx.spec = (logits.shape, logits.dtype)
            return SpecArray((), logits.dtype)
        t = targets.payload if ctx.tensor_targets else np.asarray(targets)
        logp = P.plog_softmax(logits.payload, axis=-1)
        n = logits.shape[0]
        ctx.spec = None
        ctx.softmax = np.exp(logp)
        ctx.targets = t
        return np.asarray(-np.mean(logp[np.arange(n), t]), dtype=logits.dtype)

    @staticmethod
    def backward(ctx: FnCtx, g: Payload):
        if ctx.spec is not None or type(g) is SpecArray:
            shape, dtype = ctx.spec
            grad = SpecArray(shape, dtype)
        else:
            s = ctx.softmax.copy()
            n = s.shape[0]
            s[np.arange(n), ctx.targets] -= 1.0
            grad = (g * s / n).astype(s.dtype)
        return (grad, None) if ctx.tensor_targets else (grad,)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Softmax cross-entropy, mean over the batch; ``targets`` are integer
    class ids (array-like or non-grad Tensor)."""
    return CrossEntropy.apply(logits, targets)


# ---------------------------------------------------------------------------
# Tensor operators dispatch straight to the functions above (bound here
# because tensor.py cannot import this module: it imports tensor.py)
# ---------------------------------------------------------------------------

Tensor.__add__ = Tensor.__radd__ = add
Tensor.__sub__ = sub
Tensor.__mul__ = Tensor.__rmul__ = mul
Tensor.__truediv__ = div
Tensor.__neg__ = neg
Tensor.__matmul__ = matmul
Tensor.__pow__ = power
Tensor.reshape = reshape
Tensor.transpose = transpose
Tensor.sum = sum_
Tensor.mean = mean_
Tensor.__getitem__ = slice_
