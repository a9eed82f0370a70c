"""Hybrid-axis projection: a 16-rank DP x TP x PP capture -> 512 ranks.

``ScalePlan(axes={"dp": k1, "tp": k2, "pp": k3})`` widens several
parallel axes of one capture simultaneously — the paper's 512-GPU hybrid
grids answered from a 16-thread run.  Each named axis owns the group
family the captured layout built for it (:func:`derive_axis_groups`
mirrors the ``ParallelContext`` rank-layout formulas); a captured group
widens by the *product* of the factors of the axes it belongs to, while
the other axes' factors multiply into its replica weight.  Declaring
``sharded_bytes`` per axis models how widening re-shards state — ZeRO
optimizer partitions along ``dp``, weight shards along ``tp`` — so the
projected peak memory *drops* below the captured peak instead of echoing
it.

This script captures a 4-layer GPT hybrid (DP 4 x TP 2 x PP 2, GPipe
microbatching, gradient sync) at 16 threaded ranks, projects it onto the
512-rank paper grid ``{"dp": 8, "tp": 2, "pp": 2}``, and prints the
per-axis traffic breakdown, the composed step-time estimate and the
ZeRO-1-sharded peak memory.

Run:  PYTHONPATH=src python examples/project_hybrid_512.py
"""

import time

import numpy as np

from repro.analytic.memory_model import zero_partitioned_bytes
from repro.cluster import system_iii, uniform_cluster
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.nn import CrossEntropyLoss, Linear, Sequential
from repro.parallel.data import sync_gradients
from repro.parallel.pipeline import GPipeSchedule, partition_balanced
from repro.parallel.tensor1d import ParallelTransformerLayer1D
from repro.project import Fabric, capture_run, hybrid_plan, project
from repro.project.axes import derive_axis_groups

WORLD, TPD, PPD = 16, 2, 2          # 16 ranks = DP 4 x TP 2 x PP 2
LAYERS, HIDDEN, HEADS, CLASSES = 4, 128, 8, 16
BATCH, SEQ, MICROBATCHES = 8, 4, 2
FACTORS = {"dp": 8, "tp": 2, "pp": 2}   # 16 -> 512 ranks
#: parameters per layer, the classifier head riding on the last one: the
#: stages split them evenly (§2.2's balanced partitioning)
COSTS = [12 * HIDDEN * HIDDEN] * (LAYERS - 1) + [12 * HIDDEN * HIDDEN + HIDDEN * CLASSES]

CFG = Config.from_dict(
    dict(
        parallel=dict(tensor=dict(size=TPD, mode="1d"), pipeline=PPD),
        num_microbatches=MICROBATCHES,
    )
)
rng = np.random.default_rng(0)
X = rng.standard_normal((BATCH, SEQ, HIDDEN)).astype(np.float32)
Y = rng.integers(0, CLASSES, (BATCH, SEQ))


def prog(ctx):
    pc = ParallelContext(ctx, CFG)
    s, e = partition_balanced(COSTS, pc.pipeline_size)[pc.pp_rank]
    stage = Sequential([
        ParallelTransformerLayer1D(
            HIDDEN, HEADS, pc.comm(ParallelMode.TENSOR), 2, causal=True,
            rng=np.random.default_rng((5, i)),
        )
        for i in range(s, e)
    ])
    if pc.is_last_pipeline_stage():
        stage.append(Linear(HIDDEN, CLASSES, rng=np.random.default_rng(9)))
    GPipeSchedule(pc, MICROBATCHES).run(
        stage,
        X if pc.is_first_pipeline_stage() else None,
        Y if pc.is_last_pipeline_stage() else None,
        CrossEntropyLoss(),
    )
    sync_gradients(stage.parameters(), pc.comm(ParallelMode.DATA))
    return sum(int(p.payload.size) for p in stage.parameters())


def main():
    t0 = time.perf_counter()
    params_per_rank, trace = capture_run(
        uniform_cluster(WORLD), prog, world_size=WORLD, materialize=True
    )
    trace.axes = derive_axis_groups(WORLD, tensor=TPD, pipeline=PPD)
    print(
        f"captured {trace.event_count()} events over {trace.world_size} "
        f"ranks (DP 4 x TP {TPD} x PP {PPD}) "
        f"in {time.perf_counter() - t0:.2f}s wall"
    )

    # widening dp 8x shards ZeRO-1 optimizer state (fp32 master + m + v)
    # of each rank's parameters across the wider replica group
    zero1 = zero_partitioned_bytes(max(params_per_rank), stage=1)
    plan = hybrid_plan(
        FACTORS, world=WORLD, tensor=TPD, pipeline=PPD,
        sharded_bytes={"dp": zero1},
    )
    t0 = time.perf_counter()
    rep = project(trace, plan=plan,
                  fabric=Fabric.from_cluster(system_iii(n_nodes=2)))
    wall = time.perf_counter() - t0

    print(f"\nprojected to {rep.target_world} ranks "
          f"({wall:.3f}s wall):")
    print(rep.format())

    assert rep.target_world == 512
    axes = {a.name: a for a in rep.axes}
    assert axes["tp"].projected_degree == TPD * FACTORS["tp"]
    assert axes["pp"].chain and axes["pp"].by_op_bytes.get("p2p", 0) > 0
    # ZeRO-1 sharding along the widened dp axis shrinks the peak below a
    # plain (unsharded) projection of the same capture
    plain = project(trace,
                    plan=hybrid_plan(FACTORS, world=WORLD,
                                     tensor=TPD, pipeline=PPD),
                    fabric=Fabric.from_cluster(system_iii(n_nodes=2)))
    assert rep.peak_memory_bytes < plain.peak_memory_bytes
    print(
        f"\nZeRO-1 dp sharding: peak {plain.peak_memory_bytes:,} B "
        f"-> {rep.peak_memory_bytes:,} B "
        f"({zero1:,} B of optimizer state partitioned 8x)"
    )
    print("hybrid 16 -> 512 projection verified "
          "(per-axis breakdown + sharded memory)")


if __name__ == "__main__":
    main()
