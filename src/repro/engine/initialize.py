"""Top-level entry points: ``launch`` and ``initialize``.

``launch`` is the SPMD program runner (the analogue of
``colossalai.launch_from_torch``): it takes a config dict and a per-rank
function, builds the runtime + :class:`ParallelContext` on every rank and
executes the function.

``initialize`` assembles an :class:`Engine` from user components exactly as
Listing 1 shows, wiring in the configured features (fp16 wrapping, pipeline
schedule, optimizer clipping).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

from repro.cluster.machine import ClusterSpec
from repro.config import Config
from repro.context.parallel_context import ParallelContext
from repro.engine.engine import Engine
from repro.nn.module import Module
from repro.parallel.pipeline.schedule import GPipeSchedule, PipelineSchedule
from repro.runtime.spmd import RankContext, SpmdRuntime


def launch(
    config: Union[Dict[str, Any], Config, None],
    cluster: ClusterSpec,
    fn: Optional[Callable[[RankContext, ParallelContext], Any]] = None,
    world_size: Optional[int] = None,
    materialize: bool = True,
    runtime: Optional[SpmdRuntime] = None,
    tracer: Optional[Any] = None,
) -> List[Any]:
    """Run ``fn(ctx, pc)`` SPMD over the cluster with the parallel context
    built from ``config``.  Returns per-rank results.

    Pass ``tracer=`` (a :class:`repro.trace.Tracer`) to record a per-rank
    timeline of the run.  A ``sanitize`` config section arms the SPMD
    sanitizer (``repro.sanitize``) for the run; with ``sanitize.record``
    set, each rank's op stream is saved to that golden file after a clean
    run.  With ``project.mode="project"`` the run is captured and replayed
    analytically at ``project.target_world`` ranks instead, returning a
    :class:`~repro.project.ProjectionReport` (see ``repro.project``).
    With a ``serve`` section the run is an inference-serving session
    instead: ``fn`` may be omitted and the launch returns a
    :class:`~repro.serve.TrafficReport` (see ``repro.serve``)."""
    cfg = config if isinstance(config, Config) else Config.from_dict(config)

    if cfg.autopar.enabled:
        # let the compiler pick the parallelization for the declared
        # workload, then launch with its decisions merged in
        from repro.autopar.compiler import compile_strategy

        compiled = compile_strategy(
            cluster,
            cfg.autopar.workload,
            cfg.autopar.global_batch,
            world_size=world_size or cluster.world_size,
            top_k=cfg.autopar.top_k,
            refine=cfg.autopar.refine,
            max_probe_world=cfg.autopar.max_probe_world,
        )
        cfg = compiled.apply_to(cfg)

    if cfg.serve.enabled:
        # serving mode: the world is one tensor-parallel decode replica
        # driven by the declared traffic; returns a TrafficReport
        from repro.serve import serve_launch

        return serve_launch(
            cfg, cluster, world_size=world_size, runtime=runtime,
            tracer=tracer,
        )

    if fn is None:
        raise TypeError(
            "launch() needs a per-rank fn unless a serve.* section makes "
            "the run a serving session")

    if cfg.project.mode == "project":
        from repro.project import project_launch

        return project_launch(
            cfg, cluster, fn, world_size=world_size,
            materialize=materialize, tracer=tracer,
        )

    def wrapper(ctx: RankContext) -> Any:
        pc = ParallelContext(ctx, cfg)
        return fn(ctx, pc)

    if runtime is not None:
        rt = runtime
        if cfg.comm.algorithm is not None:
            rt.set_comm_algorithm(cfg.comm.algorithm)
        if cfg.comm.overlap:
            rt.comm_overlap = True
    else:
        rt = SpmdRuntime(
            cluster,
            world_size,
            comm_algorithm=cfg.comm.algorithm or "ring",
            comm_overlap=cfg.comm.overlap,
        )
    if cfg.comm.island_ratio != rt.comm_island_ratio:
        with rt._group_lock:
            rt.comm_island_ratio = cfg.comm.island_ratio
            for grp in rt._groups.values():
                grp.cost_model.island_ratio = cfg.comm.island_ratio
    if tracer is not None:
        tracer.install(rt)
    san = None
    if cfg.sanitize.enabled and rt.sanitizer is None:
        san = cfg.sanitize.build()
        san.install(rt)
    try:
        results = rt.run(wrapper, materialize=materialize, seed=cfg.seed)
        if san is not None and cfg.sanitize.record:
            san.save_golden(cfg.sanitize.record)
        return results
    finally:
        if san is not None:
            san.uninstall()


def initialize(
    model: Module,
    optimizer: Any,
    criterion: Optional[Callable] = None,
    pc: Optional[ParallelContext] = None,
    config: Optional[Config] = None,
    schedule: Optional[PipelineSchedule] = None,
) -> Engine:
    """Build an Engine with the configured acceleration features injected.

    Mirrors ``colossalai.initialize(model, optimizer, criterion, ...)``.
    """
    if pc is None:
        from repro.context.parallel_context import global_context

        pc = global_context()
    cfg = config if config is not None else pc.config
    if cfg.fp16.enabled:
        from repro.amp.fp16 import cast_model_to

        cast_model_to(model, "float16")
    if (
        cfg.comm.overlap
        and pc.data_size > 1
        and cfg.model_parallel_size() == 1
        and not cfg.fp16.enabled
    ):
        # pure data parallelism: auto-wrap so gradient buckets all-reduce
        # nonblocking from backward hooks (fp16 keeps the post-backward sweep
        # because unscale+overflow check must precede any gradient traffic)
        from repro.parallel.data import DistributedDataParallel

        if not isinstance(model, DistributedDataParallel):
            model = DistributedDataParallel(model, pc, overlap=True)
    if schedule is None and pc.pipeline_size > 1:
        if cfg.pipeline_schedule == "1f1b":
            from repro.parallel.pipeline.schedule import OneFOneBSchedule

            schedule = OneFOneBSchedule(pc, cfg.num_microbatches)
        else:
            schedule = GPipeSchedule(pc, cfg.num_microbatches)
    return Engine(model, optimizer, criterion, pc, cfg, schedule=schedule)
