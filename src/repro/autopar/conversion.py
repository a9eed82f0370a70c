"""Sharded-layout conversion planning (§3.3).

A :class:`Layout` records, for each tensor dimension, the ordered list of
mesh axes sharding it (empty list = replicated along every axis not used
elsewhere).  Converting between layouts — e.g. "sharded on dim 0 by mesh
axis a" -> "sharded on the last dim by a" — is a sequence of collective
primitives:

=============  ===========================================  ==============
primitive      effect                                        cost model
=============  ===========================================  ==============
all_gather     remove mesh axis m from dim d                 ring allgather
slice          add unused mesh axis m to dim d               free (local)
all_to_all     move mesh axis m from dim d1 to dim d2        all-to-all
=============  ===========================================  ==============

Alpa hardcodes a conversion table, which caps the number of sharded
dimensions; here the planner runs a best-first (uniform-cost) search over
layout states, so any-to-any conversions are found with minimal modeled
communication, for arbitrarily many sharded dimensions.

``convert_payload`` executes a plan on a real local payload inside an SPMD
program, so plans are not just costed but runnable (and tested for
correctness against direct resharding).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.communicator import Communicator
from repro.comm.payload import Payload


@dataclass(frozen=True)
class Layout:
    """Sharding of an ``ndim``-dimensional tensor over named mesh axes.

    ``placement[d]`` is the tuple of mesh-axis names sharding dim ``d``
    (applied in order: the first axis is the outermost split).
    """

    ndim: int
    placement: Tuple[Tuple[str, ...], ...]

    @staticmethod
    def make(ndim: int, assignment: Optional[Dict[int, Sequence[str]]] = None) -> "Layout":
        assignment = assignment or {}
        placement: List[Tuple[str, ...]] = []
        for d in range(ndim):
            placement.append(tuple(assignment.get(d, ())))
        seen: List[str] = [a for axes in placement for a in axes]
        if len(seen) != len(set(seen)):
            raise ValueError(f"mesh axis used twice in {assignment}")
        return Layout(ndim, tuple(placement))

    def axes_used(self) -> Tuple[str, ...]:
        return tuple(a for axes in self.placement for a in axes)

    def shard_factor(self, mesh: Dict[str, int]) -> int:
        f = 1
        for axes in self.placement:
            for a in axes:
                f *= mesh[a]
        return f

    def local_shape(self, global_shape: Sequence[int], mesh: Dict[str, int]) -> Tuple[int, ...]:
        shape = list(global_shape)
        for d, axes in enumerate(self.placement):
            for a in axes:
                if shape[d] % mesh[a]:
                    raise ValueError(
                        f"dim {d} of {tuple(global_shape)} not divisible by mesh axis {a}"
                    )
                shape[d] //= mesh[a]
        return tuple(shape)

    def with_removed(self, dim: int, axis: str) -> "Layout":
        placement = list(self.placement)
        if not placement[dim] or placement[dim][-1] != axis:
            raise ValueError(f"axis {axis} is not the innermost shard of dim {dim}")
        placement[dim] = placement[dim][:-1]
        return Layout(self.ndim, tuple(placement))

    def with_added(self, dim: int, axis: str) -> "Layout":
        if axis in self.axes_used():
            raise ValueError(f"axis {axis} already shards a dim")
        placement = list(self.placement)
        placement[dim] = placement[dim] + (axis,)
        return Layout(self.ndim, tuple(placement))


@dataclass(frozen=True)
class ConversionStep:
    op: str  # "all_gather" | "slice" | "all_to_all"
    axis: str
    dim: int
    dim_to: int = -1  # all_to_all target dim

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.op == "all_to_all":
            return f"all_to_all[{self.axis}: dim{self.dim}->dim{self.dim_to}]"
        return f"{self.op}[{self.axis} on dim{self.dim}]"


@dataclass
class ConversionPlan:
    steps: List[ConversionStep]
    cost: float  # modeled seconds


def _step_cost(
    op: str, axis_size: int, local_elements: int, itemsize: int, bandwidth: float,
    alpha: float,
) -> float:
    """Modeled seconds for one conversion step on the current local shard."""
    nbytes = local_elements * itemsize
    p = axis_size
    if op == "slice":
        return 0.0
    if op == "all_gather":
        return (p - 1) * alpha + (p - 1) * nbytes / bandwidth
    if op == "all_to_all":
        return (p - 1) * alpha + ((p - 1) / p) * nbytes / bandwidth
    raise ValueError(op)


def _neighbors(layout: Layout, mesh: Dict[str, int]):
    """Yield (step, next_layout, local-elements multiplier of the step)."""
    used = layout.axes_used()
    for d, axes in enumerate(layout.placement):
        if axes:
            a = axes[-1]
            yield ConversionStep("all_gather", a, d), layout.with_removed(d, a), mesh[a]
            # all_to_all: move innermost axis of d to any other dim
            for d2 in range(layout.ndim):
                if d2 != d:
                    nxt = layout.with_removed(d, a).with_added(d2, a)
                    yield ConversionStep("all_to_all", a, d, d2), nxt, 1
    for a, size in mesh.items():
        if a not in used:
            for d in range(layout.ndim):
                yield ConversionStep("slice", a, d), layout.with_added(d, a), 1


def plan_conversion(
    src: Layout,
    dst: Layout,
    global_shape: Sequence[int],
    mesh: Dict[str, int],
    itemsize: int = 4,
    bandwidth: float = 100e9,
    alpha: float = 5e-6,
    max_states: int = 20000,
) -> ConversionPlan:
    """Uniform-cost search from ``src`` to ``dst``; returns the cheapest
    step sequence under the communication model."""
    if src.ndim != dst.ndim or dst.ndim != len(global_shape):
        raise ValueError("layout ranks do not match the tensor shape")
    total = int(np.prod(global_shape))

    def local_elems(layout: Layout) -> int:
        return total // layout.shard_factor(mesh)

    frontier: List[Tuple[float, int, Layout, List[ConversionStep]]] = [
        (0.0, 0, src, [])
    ]
    best: Dict[Layout, float] = {src: 0.0}
    counter = 0
    explored = 0
    while frontier:
        cost, _, layout, steps = heapq.heappop(frontier)
        if layout == dst:
            return ConversionPlan(steps, cost)
        if cost > best.get(layout, math.inf):
            continue
        explored += 1
        if explored > max_states:
            raise RuntimeError("conversion search exceeded the state budget")
        for step, nxt, gather_mult in _neighbors(layout, mesh):
            # cost uses the payload size the collective actually moves:
            # for all_gather, the input is the pre-gather (smaller) shard
            elems = local_elems(layout)
            c = cost + _step_cost(
                step.op, mesh[step.axis], elems, itemsize, bandwidth, alpha
            )
            if c < best.get(nxt, math.inf):
                best[nxt] = c
                counter += 1
                heapq.heappush(frontier, (c, counter, nxt, steps + [step]))
    raise RuntimeError(f"no conversion path from {src} to {dst}")


# ---------------------------------------------------------------------------
# plan execution (SPMD)
# ---------------------------------------------------------------------------


def convert_payload(
    local: Payload,
    plan: ConversionPlan,
    comms: Dict[str, Communicator],
    mesh_coord: Dict[str, int],
) -> Payload:
    """Execute ``plan`` on this rank's local payload.

    ``comms[axis]`` is the communicator of the mesh-axis group this rank
    belongs to; ``mesh_coord[axis]`` its coordinate on that axis.
    """
    from repro.autograd import payload_ops as P

    x = local
    for step in plan.steps:
        comm = comms[step.axis]
        if step.op == "all_gather":
            x = comm.all_gather(x, axis=step.dim)
        elif step.op == "slice":
            x = P.psplit(x, comm.size, step.dim)[mesh_coord[step.axis]]
        elif step.op == "all_to_all":
            chunks = P.psplit(x, comm.size, step.dim_to)
            received = comm.all_to_all(chunks)
            x = P.pconcat(received, step.dim)
        else:  # pragma: no cover - defensive
            raise ValueError(step.op)
    return x
