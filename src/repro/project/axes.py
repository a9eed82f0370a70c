"""Hybrid-axis helpers: derive the DP x TP x PP group families of a
captured run and build the matching :class:`~repro.project.replay.ScalePlan`.

The rank layout mirrors :class:`~repro.context.parallel_context.ParallelContext`:

    global_rank = dp_rank * (pp * tp) + pp_rank * tp + tp_rank

so tensor groups are runs of consecutive ranks, pipeline groups are
``tp``-strided chains inside one replica, and data groups stride across
replicas by ``tp * pp``.  :func:`derive_axis_groups` reproduces exactly the
rank tuples ``ParallelContext._build_basic_groups`` communicates over,
which is what lets a :class:`ScalePlan` axis resolve a captured group by
*value* rather than by trusting labels.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.project.replay import ScaleAxis, ScalePlan

AxisGroups = Dict[str, Tuple[Tuple[int, ...], ...]]


def derive_axis_groups(
    world: int, tensor: int = 1, pipeline: int = 1
) -> AxisGroups:
    """The ``dp`` / ``tp`` / ``pp`` group families of a ``world``-rank run
    with tensor degree ``tensor`` and pipeline depth ``pipeline``.

    Degree-1 axes still appear (as singleton groups) so a plan may scale
    an axis the capture did not parallelize — e.g. project a pure-DP
    capture onto a DP x TP grid is *not* supported (a singleton tp group
    has no captured traffic to widen), but resolving it is, and the
    projection is then a no-op on that axis's groups."""
    tp, pp = tensor, pipeline
    if world % (tp * pp) != 0:
        raise ValueError(
            f"world size {world} is not divisible by tensor*pipeline "
            f"degree {tp}*{pp}"
        )
    dp = world // (tp * pp)
    dp_groups = tuple(
        tuple(d * tp * pp + p * tp + t for d in range(dp))
        for p in range(pp) for t in range(tp)
    )
    tp_groups = tuple(
        tuple(d * tp * pp + p * tp + t for t in range(tp))
        for d in range(dp) for p in range(pp)
    )
    pp_groups = tuple(
        tuple(d * tp * pp + p * tp + t for p in range(pp))
        for d in range(dp) for t in range(tp)
    )
    return {"dp": dp_groups, "tp": tp_groups, "pp": pp_groups}


def hybrid_plan(
    factors: Dict[str, int],
    *,
    world: int,
    tensor: int = 1,
    pipeline: int = 1,
    sharded_bytes: Optional[Dict[str, int]] = None,
    compute_scale: float = 1.0,
) -> ScalePlan:
    """Build a hybrid :class:`ScalePlan` for a capture with the given
    DP x TP x PP layout.

    ``factors`` maps ``dp`` / ``tp`` / ``pp`` to widening factors;
    ``sharded_bytes`` (optional, same keys) declares the captured per-rank
    bytes each axis partitions (ZeRO state for ``dp``, weight shards for
    ``tp``).  The ``pp`` axis is marked chain-style: widening deepens the
    pipeline, so p2p boundary traffic scales by ``(k*s - 1)/(s - 1)``
    instead of the plain factor."""
    groups = derive_axis_groups(world, tensor=tensor, pipeline=pipeline)
    unknown = set(factors) - set(groups)
    if unknown:
        raise ValueError(
            f"unknown axis name(s) {sorted(unknown)}; "
            f"valid axes: {sorted(groups)}"
        )
    sharded = sharded_bytes or {}
    bad = set(sharded) - set(groups)
    if bad:
        raise ValueError(
            f"unknown axis name(s) {sorted(bad)} in sharded_bytes; "
            f"valid axes: {sorted(groups)}"
        )
    axes = {
        name: ScaleAxis(
            factor=k,
            groups=groups[name],
            sharded_bytes=int(sharded.get(name, 0)),
            chain=(name == "pp"),
        )
        for name, k in factors.items()
    }
    return ScalePlan(axes=axes, compute_scale=compute_scale)
