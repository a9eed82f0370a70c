"""Hybrid-axis helpers: derive the DP x TP x PP group families of a
captured run and build the matching :class:`~repro.project.replay.ScalePlan`.

:func:`derive_axis_groups` is a view of
:func:`~repro.context.parallel_context.rank_groups`, the layout every
:class:`~repro.context.parallel_context.ParallelContext` builds its groups
from: tensor groups are runs of consecutive ranks, pipeline groups are
``tp``-strided chains inside one replica, and data groups stride across
replicas by ``tp * pp``.  That is what lets a :class:`ScalePlan` axis
resolve a captured group by *value* rather than by trusting labels.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.context.parallel_context import ParallelMode, rank_groups
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
    layout = rank_groups(world, tensor, pipeline)
    return {"dp": layout[ParallelMode.DATA], "tp": layout[ParallelMode.TENSOR],
            "pp": layout[ParallelMode.PIPELINE]}


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
