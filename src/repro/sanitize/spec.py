"""Collective call specs: what each rank *said* it was doing.

A :class:`CollectiveSpec` captures, at the call site, everything about a
collective invocation that must agree across the member ranks for the call
to be well-formed: op name, payload shape/dtype signature, reduce op, root,
axis and group membership.  The per-op :func:`call_signature` encodes the
MPI matching rules — e.g. ``all_gather`` legitimately concatenates
different extents along the concat axis, so that dimension is wildcarded,
while ``all_reduce`` requires bitwise-identical shapes.

Specs are only ever constructed when a :class:`~repro.sanitize.CommSanitizer`
is installed; the disabled hot path never allocates one.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.comm.payload import dtype_name

#: path fragments whose frames are skipped when locating the user call site
_INTERNAL_DIRS = (
    os.sep + os.path.join("repro", "comm") + os.sep,
    os.sep + os.path.join("repro", "sanitize") + os.sep,
)


@functools.lru_cache(maxsize=None)
def _is_internal(filename: str) -> bool:
    """Asked once per source file: every rank-op walks the same few frames
    (the sanitizer's ``enter`` hook, to the user's call site)."""
    return any(d in filename for d in _INTERNAL_DIRS)


def _shape_dtype(payload: Any) -> Optional[Tuple[Tuple[int, ...], str]]:
    if payload is None:
        return None
    shape = getattr(payload, "shape", None)
    dtype = getattr(payload, "dtype", None)
    if shape is None or dtype is None:
        return None
    return tuple(int(s) for s in shape), dtype_name(dtype)


def _fmt_shape(shape: Tuple[Any, ...]) -> str:
    return "(" + ",".join(str(s) for s in shape) + ")"


def call_signature(op: str, payload: Any, **params: Any) -> str:
    """The canonical match string for one collective invocation.

    Two member ranks may meet in the same rendezvous round iff their
    signatures are equal; the string doubles as the human-readable side
    label in :class:`~repro.sanitize.errors.CollectiveMismatch`.
    """
    sd = _shape_dtype(payload)
    if op in ("all_reduce", "reduce", "reduce_scatter"):
        shape, dtype = sd if sd is not None else ((), "none")
        bits = [f"shape={_fmt_shape(shape)}", f"dtype={dtype}",
                f"op={params.get('reduce_op')}"]
        if op == "reduce":
            bits.append(f"root={params.get('root')}")
        if op == "reduce_scatter":
            bits.append(f"axis={params.get('axis')}")
        return f"{op}({', '.join(bits)})"
    if op == "all_gather":
        # the concat axis may differ across ranks; every other dim must agree
        shape, dtype = sd if sd is not None else ((), "none")
        axis = int(params.get("axis", 0)) % max(len(shape), 1) if shape else 0
        wild = tuple("*" if d == axis else s for d, s in enumerate(shape))
        bits = [f"shape={_fmt_shape(wild)}", f"dtype={dtype}", f"axis={params.get('axis')}"]
        return f"{op}({', '.join(bits)})"
    if op == "broadcast":
        return f"broadcast(root={params.get('root')})"
    if op == "all_to_all":
        return f"all_to_all(nchunks={params.get('nchunks')})"
    if op == "ring_pass":
        return f"ring_pass(shift={params.get('shift')})"
    # barrier / split: arrival is the only contract
    return f"{op}()"


@dataclass
class CollectiveSpec:
    """One rank's declaration of the collective it is entering."""

    op: str
    signature: str
    global_rank: int
    group_ranks: Tuple[int, ...]
    seq: int = -1  # filled in by the rendezvous
    callsite: str = ""
    #: False when this rank's input buffer is a placeholder the op ignores
    #: (broadcast non-root) — its bytes are excluded from checksums
    #: so uninitialized receive buffers don't fail replay conformance.
    contributes: bool = True

    def describe(self) -> str:
        return f"{self.signature} @ {self.callsite or '<no callsite>'}"
