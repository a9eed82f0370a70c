"""Function/Node machinery for reverse-mode autodiff.

A :class:`Function` subclass implements ``forward(ctx, *tensors, **params)``
returning a payload (or tuple of payloads) and ``backward(ctx, *out_grads)``
returning per-input payload gradients.  ``Function.apply`` wires the call
into the graph, wraps outputs in Tensors, and charges the op's FLOPs to the
calling rank's simulated clock (forward now, backward when the engine runs
the node).

One op is one dispatch: ``apply`` reads the thread's rank context once and
hands the device, clock and capture recorder down from there (DESIGN.md,
"what one op costs").
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.comm.payload import Payload
from repro.runtime.spmd import rank_context
from repro.tensor.tensor import Tensor, default_device

_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager disabling graph construction (thread-local, so each
    SPMD rank has independent state)."""

    def __enter__(self) -> None:
        self._prev = grad_enabled()
        _state.grad_enabled = False

    def __exit__(self, *exc) -> None:
        _state.grad_enabled = self._prev


# np.dtype.name runs Python inside numpy on every access; memoize per dtype
# (a pure function of the dtype, so there is nothing to invalidate)
DTYPE_NAMES: dict = {}


class FnCtx:
    """Per-call context: saved tensors for backward + arbitrary attributes.

    ``release()`` drops saved tensors; the engine calls it as soon as a
    node's backward has run so activation memory is returned eagerly —
    this is what makes simulated peak memory faithful.
    """

    # class-level defaults: a context that saves nothing costs no __init__
    saved_tensors: Tuple[Tensor, ...] = ()
    flops: float = 0.0
    backward_flops: Optional[float] = None  # default: same as forward

    def save_for_backward(self, *tensors: Tensor) -> None:
        self.saved_tensors = tensors

    def release(self) -> None:
        # drop saved tensors and any payloads stashed as attributes
        self.__dict__.clear()


class Node:
    """One executed op in the graph."""

    __slots__ = ("fn_cls", "ctx", "inputs", "outputs", "__weakref__")

    def __init__(
        self,
        fn_cls: type,
        ctx: FnCtx,
        inputs: Sequence[Optional[Tensor]],
        outputs: Sequence[Tensor],
    ) -> None:
        self.fn_cls = fn_cls
        self.ctx = ctx
        #: one entry per positional argument: the Tensor, or None
        self.inputs = inputs
        # weakrefs: the graph must not keep outputs alive (their consumers do)
        self.outputs = refs = []
        for t in outputs:
            refs.append(weakref.ref(t))
            t.grad_fn = self

    @property
    def name(self) -> str:
        return self.fn_cls.__name__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.name})"


class Function:
    """Base class for differentiable ops.

    Subclasses implement::

        @staticmethod
        def forward(ctx, *tensors_and_params) -> payload | tuple[payload]
        @staticmethod
        def backward(ctx, *grad_outputs) -> payload | tuple[payload | None]

    ``backward`` returns one gradient per *tensor* positional input, in
    order (None where not differentiable).
    """

    #: outputs share the input's storage (reshape/transpose/slice views)
    IS_VIEW = False
    #: memory-pool tag for outputs
    OUTPUT_TAG = "activation"

    @staticmethod
    def forward(ctx: FnCtx, *args: Any, **kwargs: Any):
        raise NotImplementedError

    @staticmethod
    def backward(ctx: FnCtx, *grad_outputs: Payload):
        raise NotImplementedError

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any) -> Union[Tensor, Tuple[Tensor, ...]]:
        inputs: List[Optional[Tensor]] = []
        needs_grad = False
        for a in args:
            if isinstance(a, Tensor):
                if a.requires_grad:
                    needs_grad = True
            else:
                a = None
            inputs.append(a)
        if needs_grad and not getattr(_state, "grad_enabled", True):
            needs_grad = False
        fnctx = FnCtx()
        out = cls.forward(fnctx, *args, **kwargs)
        multi = isinstance(out, tuple)
        payloads = out if multi else (out,)

        rc = rank_context()
        if rc is None:
            device, materialize = default_device(), True
        else:
            device, materialize = rc.device, rc.materialize
            flops = fnctx.flops
            if flops > 0:
                cap = rc.runtime.capture
                if cap is not None:
                    cap.note_op(rc.rank, cls.__name__)
                dtype = payloads[0].dtype
                name = DTYPE_NAMES.get(dtype)
                if name is None:
                    name = DTYPE_NAMES[dtype] = dtype.name
                peak = device.peak_flops
                if name in peak:
                    seconds = flops / (peak[name] * device.efficiency)
                else:  # a dtype the device lists no rate for runs as float32
                    seconds = device.compute_seconds(flops, "float32")
                rc.clock.advance(seconds, "compute")
        storage = None
        if cls.IS_VIEW:  # outputs share the first tensor input's allocation
            for t in inputs:
                if t is not None:
                    storage = t.storage
                    break
        tag = cls.OUTPUT_TAG
        outputs = []
        for p in payloads:
            outputs.append(
                Tensor._wrap(p, device, materialize, storage, needs_grad, tag)
            )
        if needs_grad:
            Node(cls, fnctx, inputs, outputs)
        return tuple(outputs) if multi else outputs[0]
