"""Projection execution mode: capture once, replay anywhere.

``repro.project`` splits *what ops happen per rank* from *who executes
them*.  A :func:`capture_run` executes an SPMD program on real threads at a
small world size and records each rank's op stream (compute advances,
priced collectives, stream issue/wait events).  :func:`project` then
replays that stream analytically — no thread per rank — either

* in **recorded** mode, reproducing the captured run's clocks, stream
  occupancy and counters bit-for-bit (the fidelity contract the parity
  tests enforce), or
* in **model** mode, re-pricing every communication op through a
  :class:`Fabric` cost model, optionally widening the named parallel axes
  of a :class:`ScalePlan` — projecting an 8-rank capture to 1024+ ranks in
  milliseconds.

Typical use::

    _results, trace = capture_run(cluster, step_fn, world_size=8)
    report = project(trace, axes={"dp": 128},
                     fabric=Fabric.from_cluster(big_cluster))
    print(report.format())   # step time, comm volume, hidden-comm %
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.project.axes import derive_axis_groups, hybrid_plan
from repro.project.capture import CaptureRecorder, OpTrace
from repro.project.fabric import Fabric, ProjectedCostModel
from repro.project.replay import (
    DEFAULT_SCALING,
    ModelPricer,
    RecordedPricer,
    ReplayEngine,
    ReplayResult,
    ReplayStall,
    ResolvedAxis,
    ScaleAxis,
    ScalePlan,
)
from repro.project.report import (
    AxisProjection,
    ProjectionReport,
    RankProjection,
    build_report,
)

__all__ = [
    "CaptureRecorder",
    "OpTrace",
    "Fabric",
    "ProjectedCostModel",
    "ScaleAxis",
    "ScalePlan",
    "ResolvedAxis",
    "RecordedPricer",
    "ModelPricer",
    "ReplayEngine",
    "ReplayResult",
    "ReplayStall",
    "DEFAULT_SCALING",
    "AxisProjection",
    "ProjectionReport",
    "RankProjection",
    "build_report",
    "capture_on",
    "capture_run",
    "derive_axis_groups",
    "hybrid_plan",
    "price_plan",
    "project",
]


def capture_run(
    cluster: Any,
    fn: Callable,
    *,
    world_size: Optional[int] = None,
    materialize: bool = False,
    seed: int = 0,
    comm_algorithm: str = "ring",
    comm_overlap: bool = False,
) -> Tuple[List[Any], OpTrace]:
    """Build a runtime over ``cluster`` and :func:`capture_on` it."""
    from repro.runtime.spmd import SpmdRuntime

    rt = SpmdRuntime(cluster, world_size, comm_algorithm=comm_algorithm,
                     comm_overlap=comm_overlap)
    return capture_on(rt, fn, materialize=materialize, seed=seed)


def capture_on(
    runtime: Any,
    fn: Callable,
    *,
    materialize: bool = False,
    seed: int = 0,
) -> Tuple[List[Any], OpTrace]:
    """Run ``fn`` SPMD on ``runtime`` with capture armed; returns
    ``(per-rank results, OpTrace)``.

    The cluster's device memory pools are cleared first so the trace's
    peak-memory snapshot reflects this run alone (``run`` itself never
    resets pools).  A runtime with a fault plan raises: capture does not
    model injected control flow."""
    runtime.cluster.reset()
    rec = CaptureRecorder().install(runtime)
    try:
        results = runtime.run(fn, materialize=materialize, seed=seed)
    finally:
        rec.uninstall()
    return results, rec.trace()


def project(
    trace: OpTrace,
    *,
    axes: Optional[Any] = None,
    plan: Optional[ScalePlan] = None,
    fabric: Optional[Fabric] = None,
    mode: str = "model",
    tracer: Optional[Any] = None,
) -> ProjectionReport:
    """Replay ``trace`` analytically and aggregate a :class:`ProjectionReport`.

    ``mode="recorded"`` replays the captured costs unchanged (requires an
    unwidened plan); ``mode="model"`` re-prices through ``fabric``
    (default: :meth:`Fabric.from_cluster` of the captured cluster) with
    every axis named in ``axes`` (ints or :class:`ScaleAxis`) widened at
    once — ``axes={"dp": k}`` is the data-parallel scale-out.  Pass
    ``plan`` instead of ``axes`` for full control (sharded bytes, compute
    rescaling).  ``tracer`` records a projected per-rank timeline."""
    if plan is None:
        plan = ScalePlan(axes=axes or {})
    elif axes is not None:
        raise ValueError("pass axes or plan, not both: put the axes in "
                         "ScalePlan(axes=...)")
    if mode == "recorded":
        if plan.total_factor() != 1:
            raise ValueError(
                "recorded mode replays the captured costs and cannot scale "
                f"the world (factor={plan.total_factor()}); use mode='model'"
            )
        pricer: Any = RecordedPricer()
    elif mode == "model":
        if fabric is None:
            fabric = Fabric.from_cluster(trace.cluster)
        pricer = ModelPricer(trace, fabric, plan)
    else:
        raise ValueError(f"unknown projection mode {mode!r}; "
                         "choose 'recorded' or 'model'")
    result = ReplayEngine(trace, pricer, plan, tracer=tracer).run()
    return build_report(result, mode)


def price_plan(
    trace: OpTrace,
    *,
    axes: Optional[Any] = None,
    tensor: int = 1,
    pipeline: int = 1,
    sharded_bytes: Optional[Any] = None,
    compute_scale: float = 1.0,
    fabric: Optional[Fabric] = None,
    tracer: Optional[Any] = None,
) -> ProjectionReport:
    """Price a captured op trace at a hybrid target scale — the strategy
    compiler's refinement entry point (:mod:`repro.autopar.compiler`) and
    the ``launch`` backend's.

    With no axis widened and no ``fabric`` given, the trace is replayed in
    **recorded** mode: the report's step time reproduces the captured
    threaded run bit-for-bit.  Otherwise a hybrid
    :class:`~repro.project.replay.ScalePlan` is built over the trace's
    DP x TP x PP layout (``tensor``/``pipeline`` describe the captured
    decomposition) and replayed in **model** mode against ``fabric``
    (default: the captured cluster's).  ``sharded_bytes`` (per-axis
    captured bytes the axis partitions) and ``compute_scale`` pass through
    to :func:`hybrid_plan`."""
    factors = dict(axes or {})
    if not trace.axes:
        trace.axes = derive_axis_groups(
            trace.world_size, tensor=tensor, pipeline=pipeline
        )
    if fabric is None and all(k == 1 for k in factors.values()):
        return project(trace, mode="recorded", tracer=tracer)
    plan = hybrid_plan(
        factors, world=trace.world_size, tensor=tensor, pipeline=pipeline,
        sharded_bytes=sharded_bytes, compute_scale=compute_scale,
    )
    return project(trace, plan=plan, fabric=fabric, mode="model",
                   tracer=tracer)
