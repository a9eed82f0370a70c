"""Skeleton probes: runnable SPMD stand-ins for a strategy candidate.

The refinement stage of the compiler does not simulate the full model —
it runs a *skeleton* of the candidate: per-rank clock advances for the
compute and the candidate's exact communication pattern as real
collectives on the real subgroups (tensor rows/columns, pipeline chains,
data-parallel/ZeRO sync), built from the same :class:`TpOp`/:class:`DpOp`
records the analytic stage prices (:mod:`repro.autopar.scoring`).

Because the probe runs on the ordinary threaded runtime, it can be
captured (:func:`repro.project.capture_run`) and replayed in recorded mode
bit-for-bit — so the compiler's refined step time *is* the simulator's
step time for the skeleton, exactly.  Each stage walks the candidate's
schedule order (``pipeline_order``, as the training executor does), so
GPipe and 1F1B probe different step times; live activation memory is
accounted analytically.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.autopar.scoring import (
    dp_step_ops,
    local_layers,
    micro_batch_size,
    tp_layer_ops,
)
from repro.autopar.search import StrategyCandidate, Workload
from repro.comm.payload import SpecArray
from repro.config import Config
from repro.context.parallel_context import ParallelContext, ParallelMode
from repro.parallel.pipeline.schedule import pipeline_order

def _payload(nbytes: int, parts: int = 1) -> SpecArray:
    """A spec-mode float32 payload of ~``nbytes``, padded so axis 0 splits
    evenly over ``parts`` ranks (reduce-scatter/all-gather contract)."""
    elems = max(-(-int(nbytes) // 4), 1)
    elems = -(-elems // parts) * parts
    return SpecArray((elems,), "float32")


def build_probe(
    work: Workload,
    cand: StrategyCandidate,
    global_batch: int,
    compute_seconds: float,
) -> Tuple[Config, Callable]:
    """Build ``(config, fn)`` for one candidate: ``fn(ctx)`` executes one
    training-step skeleton when run SPMD at ``cand.world`` ranks.

    ``compute_seconds`` is the per-rank step compute the clock advances
    (split 1/3 forward, 2/3 backward, evenly over microbatches — the same
    total the analytic stage uses, so the two stages differ only in how
    they price communication)."""
    cfg = Config.from_dict(cand.to_config_dict(work))
    m = cand.microbatches
    fwd_micro = compute_seconds / 3.0 / m
    bwd_micro = 2.0 * compute_seconds / 3.0 / m
    layers = local_layers(work, cand)
    mb = micro_batch_size(cand, global_batch)
    boundary = mb * work.seq_len * work.hidden * work.bytes_per_elem
    ops = tp_layer_ops(work, cand, mb)
    dp_ops = dp_step_ops(work, cand)
    itemsize = work.bytes_per_elem

    def fn(ctx):
        pc = ParallelContext(ctx, cfg)
        fwd = [(pc.comm(op.group), op.nbytes) for op in ops if op.phase == "fwd"]
        bwd = [(pc.comm(op.group), op.nbytes) for op in ops if op.phase == "bwd"]
        pipe = pc.comm(ParallelMode.PIPELINE) if cand.pipeline > 1 else None
        # the neighbour stages this rank receives from / sends to, if any
        stage = pc.pp_rank
        prev = stage - 1 if pipe is not None and stage > 0 else None
        nxt = stage + 1 if pipe is not None and stage < cand.pipeline - 1 else None
        dp = pc.comm(ParallelMode.DATA) if cand.data > 1 else None
        d = cand.data

        def run_tp(phase_ops):
            for _ in range(layers):
                for comm, nbytes in phase_ops:
                    comm.broadcast(_payload(nbytes))

        # one walk of the stage's schedule order, then the blocking
        # gradient sync: overlap is searched only at pp 1 and m 1, where
        # the one bucket is ready only after the only backward pass
        for step, mi in pipeline_order(cand.schedule, stage, cand.pipeline, m):
            if step == "F":
                if prev is not None:
                    pipe.recv(prev, tag=("act", mi))
                ctx.clock.advance(fwd_micro, "compute")
                run_tp(fwd)
                if nxt is not None:
                    pipe.send(_payload(boundary), nxt, tag=("act", mi))
                continue
            if nxt is not None:
                pipe.recv(nxt, tag=("grad", mi))
            ctx.clock.advance(bwd_micro, "compute")
            run_tp(bwd)
            if prev is not None:
                pipe.send(_payload(boundary), prev, tag=("grad", mi))
        for op in dp_ops:
            if op.op == "all_reduce":
                dp.all_reduce(_payload(op.elements * itemsize, d))
            elif op.op == "reduce_scatter":
                dp.reduce_scatter(_payload(op.elements * itemsize, d))
            else:
                dp.all_gather(_payload(op.elements * itemsize))

    return cfg, fn
