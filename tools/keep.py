"""Why a definition stays although no entry point, figure or example runs it: one
row per package, module, class or qualname (the coarsest grain that is true), citing
the paper / DESIGN section or the safety role.  Rule: DESIGN §4p; guard: tests/test_reachability.py,
which also fails on a row that names no module or definition."""

KEEP: dict[str, str] = {
    "repro.__getattr__": "§4ac PEP 562 hook: a top-level export or subpackage is imported on first access",
    "repro.__dir__": "§4ac PEP 562 hook: dir(repro) lists the exports not yet imported",
    "repro.zero.zero_optimizer": "overlap_backward: ZeRO-1/2's chunk reduce-scatter from backward hooks under "
                                 "comm.overlap without fp16 (DESIGN §4z); System IV's golden plan launches it "
                                 "in test_fidelity, examples/quickstart.py runs the rest",
    "repro.zero.chunk.Chunk.prefetch": "§4f ZeRO chunk prefetch under comm overlap: "
                                       "examples/gpt_zero_offload.py's overlapped adaptive step",
    "repro.zero.engine.ZeroOffloadEngine": "§4f overlap prefetch and gather_parameters' weight read-back: "
                                           "examples/gpt_zero_offload.py runs both",
    "repro.parallel.tensor1d": "§2.2 Fig 4: vocab-parallel variant of Mode1D",
    "repro.parallel.sequence.ModeSequence": "§2.3 causal ring attention; §4o gather_output",
    "repro.parallel.comm_ops": "every forward comm op keeps its adjoint",
    "repro.nn.mode.TensorMode": "§4o mode contract: the serial answers",
    "repro.parallel.tensor2d.ModeGrid": "§4o mode contract: shard_activation",
    "repro.parallel.tensor3d.Mode3D": "§4o mode contract: shard_activation",
    "repro.autopar.conversion": "§3.3 layout-conversion search",
    "repro.context.parallel_context": "§4 seeded RNG per parallel mode; Listing 1's global context",
    "repro.autograd": "gradcheck is the tests' numerical reference; Sub / Div / Neg / Power and their payload "
                      "halves back Tensor's -, /, unary - and **; Dropout is the one op that draws the rank "
                      "RNG, which checkpoint recompute must rewind; pzeros is the gradient of an output nothing "
                      "consumed, FnCtx.name a node's label in the engine's checks",
    "repro.nn.layers.Dropout": "the module face of autograd's Dropout, the one layer whose forward draws the "
                               "seeded rank RNG",
    "repro.nn.module": "Listing 1's torch-style Module surface that user code calls (zero_grad, ModuleList "
                       "indexing); the engine and the model builders iterate instead",
    "repro.tensor.tensor.Tensor": "the torch-style accessors user code calls: data (None in spec mode) and "
                                  "release (free the storage early)",
    "repro.cluster.topology.Topology": "§4b link degradation; link-graph introspection",
    "repro.comm.communicator": "typed errors: an invalid reduce op, an out-of-range rank and a mixed-dtype "
                               "spec round are refused alike in both modes; isend and its StreamSendHandle, "
                               "whose stream rule the conformance oracle and comm_golden pin (§4f)",
    "repro.runtime.clock.StreamClock.occupy": "§4f one member's comm-stream occupancy (a solo nonblocking "
                                              "round, a stream isend); occupy_all batches it for a "
                                              "collective's members",
    "repro.comm.timeline.GroupTimeline": "§4f overlap-mode isend on the p2p stream; §4u p2p retry rule under a FaultPlan",
    "repro.comm.counters.CommCounters": "§4b retry accounting; reset between measured phases",
    "repro.comm.payload.SpecArray": "ndarray-shaped surface of the spec payload",
    "repro.engine.engine.Engine": "execute_schedule: Trainer.fit's pipeline path, checked against the "
                                  "hand-called schedule",
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
    "repro.serve": "§4j typed errors, BlockPool's consistency check and property-test surface, trace spans",
}


def kept_by(rel: str, qual: str) -> str | None:
    """The ``KEEP`` row covering ``qual`` of ``src/repro/<rel>``, if any."""
    parts = [p for p in ("repro", *rel[:-3].split("/"), *qual.split(".")) if p != "__init__"]
    rows = (".".join(parts[:n]) for n in range(len(parts), 0, -1))
    return next((row for row in rows if row in KEEP), None)
