"""Why a definition stays although no entry point, figure or example runs it: one
row per package, module, class or qualname (the coarsest grain that is true), citing
the paper / DESIGN section or the safety role.  Rule: DESIGN §4p; guard: tests/test_reachability.py,
which also fails on a row that names no module or definition."""

KEEP: dict[str, str] = {
    "repro.__getattr__": "§4ac PEP 562 hook: a top-level export or subpackage is imported on first access",
    "repro.__dir__": "§4ac PEP 562 hook: dir(repro) lists the exports not yet imported",
    "repro.amp": "§2 inventory: fp16 cast, dynamic loss scaling, checkpointed scaler state",
    "repro.optim": "§2 / README substrate row: SGD, CPUAdam, HybridAdam (§3.2), LR schedules, clipping",
    "repro.zero.zero_optimizer": "§2.1 / §3.2 ZeRO-1/2 on chunks, built by initialize() from zero.stage "
                                 "(DESIGN §4z); System IV's golden plan launches it in test_fidelity",
    "repro.zero.chunk.Chunk.prefetch": "§4f ZeRO chunk prefetch under comm overlap",
    "repro.zero.engine.ZeroOffloadEngine": "§4f overlap prefetch; gather_parameters reads weights back",
    "repro.parallel.vocab_ce": "§2 inventory: vocab-parallel cross-entropy",
    "repro.parallel.tensor1d": "§2.2 Fig 4: vocab-parallel variant of Mode1D",
    "repro.parallel.sequence.ModeSequence": "§2.3 causal ring attention; §4o gather_output",
    "repro.parallel.pipeline": "§2.2 1F1B schedule, balanced partitioning",
    "repro.parallel.comm_ops": "every forward comm op keeps its adjoint",
    "repro.nn.mode.TensorMode": "§4o mode contract: the serial answers",
    "repro.parallel.tensor2d.ModeGrid": "§4o mode contract: shard_activation",
    "repro.parallel.tensor3d.Mode3D": "§4o mode contract: shard_activation",
    "repro.autopar.conversion": "§3.3 layout-conversion search",
    "repro.analytic.perf_model": "§2 inventory: FLOP counts (per layer, the 6N rule)",
    "repro.data.synthetic": "§2 inventory: Wikipedia-like token stream",
    "repro.context.parallel_context": "§4 seeded RNG per parallel mode; Listing 1's global context",
    "repro.autograd": "§2 op list and grad-check (the tests' reference); back Tensor's - / neg ** and amp's cast",
    "repro.nn.module": "§2 inventory: Module / ModuleList API",
    "repro.nn.layers.Dropout": "§2 inventory",
    "repro.nn.loss.MSELoss": "§2 inventory: losses",
    "repro.tensor": "§2 inventory: Tensor.data / release, sharding descriptors; tests bind a Device outside a run",
    "repro.cluster.device": "§2 inventory: memory pools (breakdown / reset_peak)",
    "repro.cluster.topology.Topology": "§4b link degradation; link-graph introspection",
    "repro.comm.communicator": "§2 inventory: scatter / gather / isend / irecv / object gather, request handles",
    "repro.comm.cost.CostModel": "prices the rooted collectives above",
    "repro.comm.timeline.GroupTimeline": "§4f overlap-mode isend on the p2p stream; §4u p2p retry rule under a FaultPlan",
    "repro.comm.counters.CommCounters": "§4b retry accounting; reset between measured phases",
    "repro.comm.payload.SpecArray": "ndarray-shaped surface of the spec payload",
    "repro.engine.engine.Engine": "Listing 1 surface (eval)",
    "repro.trainer": "§4 extensibility: metric / throughput hooks, evaluate, checkpoint manager",
    "repro.utils.backoff": "§4b retry backoff",
    "repro.utils.profile.time_breakdown": "imported by bench/workloads",
    "repro.config.SanitizeConfig.build": "launch() builds the configured sanitizer",
    "repro.config.ProjectionConfig.factors": "§4g launch wiring: a projection session's axes",
    "repro.comm.group": "error path: mixed blocking / nonblocking round; polling a nonblocking handle",
    "repro.runtime.errors": "typed error paths",
    "repro.runtime.buffer_pool.BufferPoolLeak": "error path: leaked pool loan",
    "repro.faults": "§4b fault plans and the p2p verdict",
    "repro.sanitize": "§4e race detector, checksums, wait-cycle diagnosis, uninstall",
    "repro.trace.tracer.Tracer": "§4c regions, counters, memory samples, failure instants",
    "repro.project": "§4g launch wiring, stream / solo / eager-wait events, fabric closed forms, report dicts",
    "repro.serve": "§4j launch wiring, typed errors, BlockPool's property-test surface, trace spans",
}


def kept_by(rel: str, qual: str) -> str | None:
    """The ``KEEP`` row covering ``qual`` of ``src/repro/<rel>``, if any."""
    parts = [p for p in ("repro", *rel[:-3].split("/"), *qual.split(".")) if p != "__init__"]
    rows = (".".join(parts[:n]) for n in range(len(parts), 0, -1))
    return next((row for row in rows if row in KEEP), None)
