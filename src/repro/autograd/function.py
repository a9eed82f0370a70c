"""Function/context machinery for reverse-mode autodiff.

A :class:`Function` subclass implements ``forward(ctx, *tensors, **params)``
returning a payload (or tuple of payloads) and ``backward(ctx, *out_grads)``
returning per-input payload gradients.  ``Function.apply`` wires the call
into the graph, builds the output Tensors, and charges the op's FLOPs to the
calling rank's simulated clock (forward now, backward when the engine runs
the node).  The op's :class:`FnCtx` is its graph node: an output's
``grad_fn`` is the context its ``forward`` saved into.

One op is one dispatch: ``apply`` reads the thread's rank context once,
hands the device, clock and capture recorder down from there and stores
its outputs' slots itself (DESIGN.md, "what one op costs").  In spec mode
an op declared ``PURE`` infers once per signature: the first dispatch
records an :class:`OpPlan` in the runtime's table and every later one —
any rank, layer, recompute or micro-batch — fills its context from the
plan instead of running ``forward`` (DESIGN.md, "infer once per
signature").
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.device import Storage
from repro.comm.payload import DTYPE_NAMES, Payload, SpecArray
from repro.runtime.spmd import rank_context
from repro.tensor.tensor import Tensor, _as_payload, default_device

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


class FnCtx:
    """Per-call context and, for an op that needs a gradient, its graph
    node: saved tensors and arbitrary attributes in ``__dict__``, and the
    graph links in slots — ``fn_cls``, ``inputs`` (one entry per
    positional argument: the Tensor, or None) and ``outputs`` (weakrefs:
    the graph must not keep outputs alive, their consumers do).

    The engine clears ``__dict__`` as soon as the node's backward has run
    so activation memory is returned eagerly — this is what makes
    simulated peak memory faithful.
    """

    __slots__ = ("fn_cls", "inputs", "outputs", "__dict__")

    # class-level defaults: a context that saves nothing costs no __init__
    saved_tensors: Tuple[Tensor, ...] = ()
    flops: float = 0.0
    backward_flops: Optional[float] = None  # default: same as forward
    #: the plan this call recorded or was filled from (spec-mode pure ops)
    plan: Optional["OpPlan"] = None

    def save_for_backward(self, *tensors: Tensor) -> None:
        self.saved_tensors = tensors

    @property
    def name(self) -> str:
        return self.fn_cls.__name__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FnCtx({self.name})"


class OpPlan:
    """What a pure op's spec-mode ``forward`` and ``backward`` compute for
    one signature — (op class, input shapes and dtypes, static arguments) —
    held as values so that a later dispatch of the signature, on any rank,
    skips both.

    A plan holds only what is immutable and belongs to no rank: the output
    ``SpecArray``s, the frozen context attributes (``flops`` among them)
    and, as argument *positions*, which inputs ``save_for_backward`` kept.
    It never holds a ``Tensor``: that would pin a ``Storage`` and move
    simulated peak memory.  ``grads`` maps the out-gradient specs to the
    input-gradient ``SpecArray``s ``backward`` returned for them.
    """

    __slots__ = ("payloads", "multi", "attrs", "saved", "grads")

    def __init__(
        self,
        payloads: Tuple[SpecArray, ...],
        multi: bool,
        attrs: Dict[str, Any],
        saved: Tuple[int, ...],
    ) -> None:
        self.payloads = payloads
        self.multi = multi
        self.attrs = attrs
        self.saved = saved
        self.grads: Dict[tuple, Tuple[Optional[SpecArray], ...]] = {}


#: table entry of a signature whose context held something not provably
#: frozen: the op runs its ``forward`` on every call
UNPLANNABLE = False

_ATOMS = frozenset({int, float, bool, str, type(None), type(Ellipsis)})


def _freeze(v: Any) -> tuple:
    """A hashable, type-exact stand-in for a static argument or a context
    attribute: ``2`` / ``2.0`` / ``True`` stay distinct, a ``slice``
    (unhashable on 3.11) becomes its bounds.  Raises ``TypeError`` for
    anything not provably immutable — an ``ndarray``, a list, an object."""
    t = type(v)
    if t is SpecArray:
        return (t, v.shape, v.dtype)
    out: list = [t]
    for x in v if t is tuple else (v,):
        tx = type(x)
        if tx in _ATOMS or isinstance(x, (np.dtype, np.generic)):
            out.append(tx)
            out.append(x)
        elif tx is slice:
            out.append(tx)
            for bound in (x.start, x.stop, x.step):
                if bound is not None and type(bound) is not int:
                    raise TypeError(f"slice bound {bound!r} is not a plain int")
                out.append(bound)
        elif tx is tuple or tx is SpecArray:
            out.append(_freeze(x))
        else:
            raise TypeError(f"{tx.__name__} is not provably immutable")
    return tuple(out)


def _record_plan(
    fnctx: FnCtx, args: Sequence[Any], payloads: Sequence[Payload], multi: bool
) -> Union[OpPlan, bool]:
    """Turn what ``forward`` left in ``fnctx`` into an :class:`OpPlan`, or
    :data:`UNPLANNABLE` when any of it cannot be proven frozen: a
    materialized output, a saved tensor that is not an argument, an
    attribute ``_freeze`` rejects (a stashed ``Tensor`` among them)."""
    for p in payloads:
        if type(p) is not SpecArray:
            return UNPLANNABLE
    attrs: Dict[str, Any] = {}
    saved: List[int] = []
    for name, v in fnctx.__dict__.items():
        if name == "saved_tensors":
            for t in v:
                for i, a in enumerate(args):
                    if a is t:
                        saved.append(i)
                        break
                else:
                    return UNPLANNABLE
        else:
            try:
                _freeze(v)
            except TypeError:
                return UNPLANNABLE
            attrs[name] = v
    return OpPlan(tuple(payloads), multi, attrs, tuple(saved))


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
    #: in spec mode ``forward`` and ``backward`` are functions of the op's
    #: signature alone — no randomness, no communication, no rank state —
    #: so one recorded :class:`OpPlan` serves every dispatch of it
    PURE = False

    @staticmethod
    def forward(ctx: FnCtx, *args: Any, **kwargs: Any):
        raise NotImplementedError

    @staticmethod
    def backward(ctx: FnCtx, *grad_outputs: Payload):
        raise NotImplementedError

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any) -> Union[Tensor, Tuple[Tensor, ...]]:
        rc = rank_context()
        # the signature, built only where a plan may serve it: a pure op
        # in spec mode (real mode never builds a key)
        key: Optional[list] = None
        if rc is not None and not rc.materialize and cls.PURE:
            key = [cls]
        inputs: List[Optional[Tensor]] = []
        needs_grad = False
        for a in args:
            if isinstance(a, Tensor):
                if a.requires_grad:
                    needs_grad = True
                if key is not None:
                    p = a.payload
                    if type(p) is SpecArray:
                        key.append((p.shape, p.dtype))
                    else:
                        key = None
            else:
                if key is not None:
                    ta = type(a)
                    if ta in _ATOMS:
                        key.append((ta, a))
                    else:
                        try:
                            key.append(_freeze(a))
                        except TypeError:
                            key = None
                a = None
            inputs.append(a)
        if kwargs:
            for name, v in kwargs.items():
                if isinstance(v, Tensor):
                    raise TypeError(
                        f"{cls.__name__}.apply got a Tensor for keyword "
                        f"{name!r}: autograd tracks positional tensors only, "
                        f"so it would never receive a gradient"
                    )
            if key is not None:
                try:
                    for name in sorted(kwargs):
                        key.append((name, _freeze(kwargs[name])))
                except TypeError:
                    key = None
        if needs_grad and not getattr(_state, "grad_enabled", True):
            needs_grad = False
        fnctx = FnCtx()
        plan: Union[OpPlan, bool, None] = UNPLANNABLE
        if key is not None:
            plans = rc.runtime.op_plans
            key = tuple(key)
            plan = plans.get(key)
        if plan:
            fnctx.__dict__.update(plan.attrs)
            fnctx.plan = plan
            if plan.saved:
                saved = []
                for i in plan.saved:
                    saved.append(args[i])
                fnctx.saved_tensors = tuple(saved)
            multi, payloads = plan.multi, plan.payloads
        else:
            out = cls.forward(fnctx, *args, **kwargs)
            multi = isinstance(out, tuple)
            payloads = out if multi else (out,)
            if plan is None:  # a cold signature: keep what forward inferred
                with rc.runtime.op_plan_lock:  # once, if ranks race the miss
                    plan = plans.get(key)
                    if plan is None:
                        plan = plans[key] = _record_plan(
                            fnctx, args, payloads, multi
                        )
                if plan:
                    fnctx.plan = plan

        if rc is None:
            device, materialize = default_device(), True
        else:
            device, materialize = rc.device, rc.materialize
            flops = fnctx.flops
            if flops > 0:
                cap = rc.runtime.capture
                if cap is not None:
                    cap.note_op(rc._rank, cls.__name__)
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
        for p in payloads:  # the stores of ``Tensor._wrap``, made inline
            if type(p) is not SpecArray and not (materialize and type(p) is np.ndarray):
                p = _as_payload(p, None, materialize)
            t = Tensor.__new__(Tensor)
            t.payload, t.device, t.tag = p, device, tag
            t.storage = Storage(device, p.nbytes, tag) if storage is None else storage
            t.requires_grad = needs_grad
            t.grad = t.grad_fn = t.grad_hook = t.name = None
            outputs.append(t)
        if needs_grad:  # the context becomes the op's graph node
            fnctx.fn_cls = cls
            fnctx.inputs = inputs
            fnctx.outputs = refs = []
            for t in outputs:
                refs.append(weakref.ref(t))
                t.grad_fn = fnctx
        return tuple(outputs) if multi else outputs[0]
