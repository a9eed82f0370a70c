"""Top-level entry points: ``launch`` and ``initialize``.

``launch`` is the session runner (the analogue of
``colossalai.launch_from_torch``): it takes a config dict and a per-rank
function, configures one runtime from the config and runs the session the
config names — training, projection or serving — on it.

``initialize`` assembles an :class:`Engine` from user components exactly as
Listing 1 shows, wiring in the configured features (fp16 wrapping, ZeRO-1/2,
gradient overlap, pipeline schedule, optimizer clipping).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from repro.cluster.machine import ClusterSpec
from repro.config import Config, ConfigError
from repro.context.parallel_context import ParallelContext, ParallelMode
from repro.engine.engine import Engine
from repro.nn.module import Module
from repro.parallel.pipeline.schedule import SCHEDULES, PipelineSchedule
from repro.runtime.spmd import RankContext, SpmdRuntime


def launch(
    config: Union[Dict[str, Any], Config, None],
    cluster: ClusterSpec,
    fn: Optional[Callable[[RankContext, ParallelContext], Any]] = None,
    world_size: Optional[int] = None,
    materialize: bool = True,
    runtime: Optional[SpmdRuntime] = None,
    tracer: Optional[Any] = None,
) -> Any:
    """Run one session of ``config`` over the cluster and return its result.

    Every session kind is set up here, once, the same way:

    * a training or projection session first checks the ``parallel`` layout
      against the world (:meth:`Config.infer_data_size`), so a layout the
      world cannot hold is a ``ConfigError`` before any rank starts; a
      serving session, whose world is one tensor-parallel replica, refuses
      a ``parallel.tensor.size`` other than 1 or the world (``Config``
      itself refuses a ``pipeline`` or ``data`` above 1 there);
    * the runtime is built over ``world_size`` ranks, or ``runtime`` is
      handed in, and the ``comm`` section is applied to it
      (:meth:`SpmdRuntime.apply_comm`).  A handed runtime keeps its own
      algorithm when ``comm.algorithm`` is None and its own overlap when
      ``comm.overlap`` is False;
    * a ``sanitize`` section arms the SPMD sanitizer (``repro.sanitize``)
      unless the runtime already has one, saves each rank's op stream to
      ``sanitize.record`` after a clean session, and is uninstalled
      however the session ends;
    * ``tracer=`` (a :class:`repro.trace.Tracer`) is installed on the
      runtime; a projection hands it to the replay instead, so it records
      the projected timeline.

    Then one of three bodies runs:

    * **training** (the default) runs ``fn(ctx, pc)`` on every rank, with
      the :class:`ParallelContext` built from ``config``, seeded by
      ``seed``; it returns the per-rank results;
    * **projection** (``project.mode="project"``) captures that program on
      the runtime and prices it at ``project.axes`` / ``target_world``
      over the ``parallel`` layout (``repro.project``); it returns a
      :class:`~repro.project.ProjectionReport`;
    * **serving** (a ``serve`` section) drives the world as one
      tensor-parallel decode replica through the declared traffic
      (``repro.serve``); ``fn`` may be omitted, and it returns a
      :class:`~repro.serve.TrafficReport`.

    An ``autopar`` section first compiles the ``parallel`` / ``zero`` /
    ``comm`` settings for its workload (``repro.autopar``)."""
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

    serving = cfg.serve.enabled
    if fn is None and not serving:
        raise TypeError(
            "launch() needs a per-rank fn unless a serve.* section makes "
            "the run a serving session")

    def wrapper(ctx: RankContext) -> Any:
        pc = ParallelContext(ctx, cfg)
        return fn(ctx, pc)

    rt = runtime if runtime is not None else SpmdRuntime(cluster, world_size)
    if not serving:
        cfg.infer_data_size(rt.world_size)
    elif cfg.tensor.size not in (1, rt.world_size):
        raise ConfigError(
            f"parallel.tensor.size must be 1 or the world size {rt.world_size} in a serving "
            f"session (the world serves as one tensor-parallel replica), got {cfg.tensor.size}")
    projecting = not serving and cfg.project.mode == "project"
    if projecting:
        factors = cfg.project.factors(rt.world_size)
    rt.apply_comm(cfg.comm)
    if tracer is not None and not projecting:
        tracer.install(rt)
    san = None
    if cfg.sanitize.enabled and rt.sanitizer is None:
        san = cfg.sanitize.build().install(rt)
    try:
        if serving:
            from repro.serve import ServeEngine

            sv = cfg.serve
            model, traffic = sv.build()
            result = ServeEngine(
                rt, model, traffic,
                block_size=sv.block_size,
                kv_blocks=sv.kv_blocks,
                kv_fraction=sv.kv_fraction,
                max_batch_tokens=sv.max_batch_tokens,
                prefill_chunk=sv.prefill_chunk,
                recovery_seconds=sv.recovery_seconds,
                max_recoveries=sv.max_recoveries,
            ).run()
        elif projecting:
            from repro.project import capture_on, price_plan

            _results, trace = capture_on(rt, wrapper, materialize=materialize,
                                         seed=cfg.seed)
            result = price_plan(trace, axes=factors, tensor=cfg.tensor.size,
                                pipeline=cfg.pipeline, tracer=tracer)
        else:
            result = rt.run(wrapper, materialize=materialize, seed=cfg.seed)
        if san is not None and cfg.sanitize.record:
            san.save_golden(cfg.sanitize.record)
        return result
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
    ``zero.stage`` 1 or 2 swaps the ``Adam`` for a same-settings
    ``ZeroRedundancyOptimizer`` over the data-parallel group, whose chunks
    then own the gradient exchange (DESIGN §4z).  ``comm.overlap`` on pure
    data parallelism without fp16 overlaps that exchange with backward:
    stage 0 through a DDP wrap, stages 1-2 through the chunks' hooks.
    """
    if pc is None:
        from repro.context.parallel_context import global_context

        pc = global_context()
    cfg = config if config is not None else pc.config
    if cfg.fp16.enabled:
        from repro.amp.fp16 import cast_model_to

        cast_model_to(model, "float16")
    # pure data parallelism overlaps the gradient exchange with backward
    # (fp16 keeps the post-backward sweep because unscale+overflow check must
    # precede any gradient traffic)
    overlap = (cfg.comm.overlap and pc.data_size > 1 and cfg.model_parallel_size() == 1
               and not cfg.fp16.enabled)
    if stage := cfg.zero.stage:
        from repro.optim.adam import Adam
        from repro.zero import ZeroRedundancyOptimizer

        if not isinstance(optimizer, Adam):
            raise ConfigError(
                f"zero.stage: {stage} with {type(optimizer).__name__}: ZeRO-1/2 shard an Adam")
        optimizer = ZeroRedundancyOptimizer(
            optimizer.params, pc.comm(ParallelMode.DATA), stage,
            decoupled_wd=optimizer.DECOUPLED_WD, **optimizer.defaults)
        if overlap:
            optimizer.overlap_backward()
    elif overlap:
        # gradient buckets all-reduce nonblocking from backward hooks
        from repro.parallel.data import DistributedDataParallel

        if not isinstance(model, DistributedDataParallel):
            model = DistributedDataParallel(model, pc, overlap=True)
    if schedule is None and pc.pipeline_size > 1:
        schedule = SCHEDULES[cfg.pipeline_schedule](pc, cfg.num_microbatches)
    return Engine(model, optimizer, criterion, pc, cfg, schedule=schedule)
