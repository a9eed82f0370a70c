"""Backward pass execution.

Iterative reverse-topological traversal.  Two properties matter for the
reproduction:

* **Determinism** — children are visited in recorded order, so gradient
  accumulation order (and therefore floating-point results) is identical
  run to run; the multi-dim TP parity tests rely on this.
* **Eager memory release** — as soon as a node's backward has run, its
  saved activations and its outputs' gradient buffers are dropped, so the
  simulated memory high-water mark matches the shape of a real framework's
  forward/backward curve (rising through forward, falling through
  backward).

A leaf's ``grad_hook`` fires after each accumulation into its ``.grad``;
:class:`ReadyCount` turns those hooks into "this group's gradients are all
in" for DDP's buckets and ZeRO-1/2's chunks.
"""

from __future__ import annotations

import functools
import weakref
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.autograd.function import FnCtx
from repro.autograd.payload_ops import padd, pones_like, pzeros
from repro.comm.payload import DTYPE_NAMES, Payload, SpecArray
from repro.runtime.spmd import rank_context
from repro.tensor.tensor import Tensor


def _topo_order(root: FnCtx) -> List[FnCtx]:
    """Nodes in an order where every node precedes the producers of its
    inputs (i.e. reverse topological for the forward graph)."""
    order: List[FnCtx] = []
    seen = set()
    stack: List[Tuple[FnCtx, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for t in node.inputs:
            if t is not None:
                parent = t.grad_fn
                if parent is not None and id(parent) not in seen:
                    stack.append((parent, False))
    order.reverse()  # loss node first, producers toward the leaves last
    return order


def backward(root: Tensor, grad: Optional[Tensor] = None) -> None:
    """Run reverse-mode autodiff from ``root``.

    Leaf tensors with ``requires_grad`` accumulate into ``.grad`` (a Tensor
    tagged ``"grad"``); intermediate gradients live only transiently.
    """
    # the rank context is read once per backward, not once per node
    rc = rank_context()
    materialize = rc is None or rc.materialize
    if root.grad_fn is None:
        if root.requires_grad:
            seed = grad.payload if grad is not None else pones_like(root.payload)
            _accumulate_leaf(root, seed, materialize)
            return
        raise RuntimeError("backward() on a tensor that is not part of a graph")

    if grad is None:
        if root.size != 1:
            raise RuntimeError(
                f"backward() without explicit gradient requires a scalar, got shape {root.shape}"
            )
        seed: Payload = pones_like(root.payload)
    else:
        seed = grad.payload
    if rc is not None:
        device, clock = rc.device, rc.clock
        cap, rank = rc.runtime.capture, rc._rank

    # gradient buffers for intermediate tensors, keyed by tensor identity
    grads: Dict[int, Payload] = {id(root): seed}

    for node in _topo_order(root.grad_fn):
        plan = node.plan
        # with a plan, backward is a function of the out-gradient specs
        gkey: Optional[list] = None if plan is None else []
        out_grads: List[Optional[Payload]] = []
        live: Optional[Tensor] = None  # first output something still holds
        for ref in node.outputs:
            t = ref()
            g = None
            if t is not None:
                if live is None:
                    live = t
                # the last read of this buffer: consumers ran before producers
                g = grads.pop(id(t), None)
                if g is None:
                    p = t.payload
                    g = pzeros(p.shape, p.dtype, spec=type(p) is SpecArray)
            out_grads.append(g)
            if gkey is not None:
                if g is None:
                    gkey.append(None)
                elif type(g) is SpecArray:
                    gkey.append((g.shape, g.dtype))
                else:
                    gkey = None
        if live is None:
            node.__dict__.clear()  # drop saved activations and stashes
            continue

        in_grads = None
        if gkey is not None:
            gkey = tuple(gkey)
            in_grads = plan.grads.get(gkey)
        if in_grads is None:
            in_grads = node.fn_cls.backward(node, *out_grads)
            if not isinstance(in_grads, tuple):
                in_grads = (in_grads,)
            if gkey is not None:
                for g in in_grads:
                    if g is not None and type(g) is not SpecArray:
                        break
                else:
                    plan.grads[gkey] = in_grads
        bflops = node.backward_flops
        if bflops is None:
            bflops = node.flops
        if bflops > 0 and rc is not None:
            if cap is not None:
                cap.note_op(rank, f"{node.fn_cls.__name__}Backward")
            dtype = live.payload.dtype
            name = DTYPE_NAMES.get(dtype)
            if name is None:
                name = DTYPE_NAMES[dtype] = dtype.name
            peak = device.peak_flops
            if name in peak:
                seconds = bflops / (peak[name] * device.efficiency)
            else:  # a dtype the device lists no rate for runs as float32
                seconds = device.compute_seconds(bflops, "float32")
            clock.advance(seconds, "compute")

        tensor_inputs = []
        for t in node.inputs:
            if t is not None:
                tensor_inputs.append(t)
        if len(in_grads) != len(tensor_inputs):
            raise RuntimeError(
                f"{node.name}.backward returned {len(in_grads)} grads for "
                f"{len(tensor_inputs)} tensor inputs"
            )
        for t, g in zip(tensor_inputs, in_grads):
            if g is None or not t.requires_grad:
                continue
            if t.grad_fn is None:
                _accumulate_leaf(t, g, materialize)
            else:
                prev = grads.get(id(t))
                if prev is None:
                    grads[id(t)] = g
                elif (type(g) is not SpecArray or type(prev) is not SpecArray
                      or g.shape != prev.shape or g.dtype != prev.dtype):
                    grads[id(t)] = padd(prev, g)
                # else: equal specs sum to that spec, an immutable value
                # — ``prev`` stands (as in ``_accumulate_leaf``)

        # free this node's state: saved activations
        node.__dict__.clear()


Tensor.backward = backward


def _accumulate_leaf(t: Tensor, g: Payload, materialize: bool) -> None:
    if g.shape != t.payload.shape:
        raise RuntimeError(
            f"gradient shape {tuple(g.shape)} does not match leaf shape {t.shape}"
        )
    if t.grad is None:
        t.grad = Tensor._wrap(g, t.device, materialize, tag="grad")
    else:
        prev = t.grad.payload
        if (type(g) is not SpecArray or type(prev) is not SpecArray
                or g.shape != prev.shape or g.dtype != prev.dtype):
            t.grad.payload = padd(prev, g)
    if t.grad_hook is not None:
        t.grad_hook(t)


class ReadyCount:
    """Hook-driven flushing of parameter groups, shared by DDP's gradient
    buckets and ZeRO-1/2's chunks: each parameter's gradient hook counts it
    into its group, and the owner's ``_flush(gi)`` issues the group's
    collective the moment its last gradient lands, while earlier layers'
    backward still computes.  ``_flush`` marks ``_flushed[gi]``.  It assumes
    one gradient accumulation per parameter per exchange: a second raises
    rather than desynchronizing numerics."""

    def _arm(self, groups: Sequence[Sequence[Tensor]], hooked: bool = True) -> None:
        self._sizes = [len(g) for g in groups]
        self._ready: List[Set[int]] = [set() for _ in groups]
        self._flushed = [False] * len(groups)
        if not hooked:
            return
        # the hook holds its owner weakly: a bound method would close the
        # cycle param -> hook -> owner -> param, and the parameters' pool
        # bytes would then wait for the cyclic collector
        hook = functools.partial(ReadyCount._on_grad_ready, weakref.ref(self))
        self._group_of: Dict[int, int] = {}
        for gi, group in enumerate(groups):
            for p in group:
                self._group_of[id(p)] = gi
                p.grad_hook = hook

    @staticmethod
    def _on_grad_ready(ref: "weakref.ref[ReadyCount]", p: Tensor) -> None:
        self = ref()
        if self is None:  # owner dropped, parameters kept: nothing to flush
            return
        gi = self._group_of[id(p)]
        ready = self._ready[gi]
        if self._flushed[gi] or id(p) in ready:
            raise RuntimeError(
                f"{type(self).__name__} overlap: parameter {p.name or id(p)} "
                f"accumulated a gradient twice before its exchange — shared "
                f"parameters and multi-backward gradient accumulation require "
                f"overlap=False"
            )
        ready.add(id(p))
        if len(ready) == self._sizes[gi]:
            self._flush(gi)

    def _flush(self, gi: int) -> None:
        raise NotImplementedError

    def _flush_rest(self) -> None:
        """Flush, in group order, every group backward left incomplete (no
        gradient this step, or a partial set), so every rank issues the same
        collective sequence."""
        for gi, done in enumerate(self._flushed):
            if not done:
                self._flush(gi)

    def _rearm(self) -> None:
        for ready in self._ready:
            ready.clear()
        self._flushed = [False] * len(self._flushed)
