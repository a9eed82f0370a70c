"""Automatic parallelization (§3.3 / §6 of the paper).

Demonstrates the two experimental auto-parallel components:

1. the sharded-layout **conversion planner** — a best-first search over
   conversion primitives (the paper's greedy improvement on Alpa's
   hardcoded conversion table), executed SPMD to prove the plan is real;
2. the hardware-aware **strategy scoring** — at tensor degree 4 it prefers
   1D tensor parallelism on the fully-NVLinked System I but switches to 2D
   on the partially-connected System II, matching the paper's Fig 11
   conclusion (``examples/compile_strategy.py`` runs the whole search).

Run:  python examples/auto_parallel_advisor.py
"""

import numpy as np

from repro.autopar import (
    Layout,
    StrategyCandidate,
    Workload,
    convert_payload,
    plan_conversion,
    score_candidate,
)
from repro.cluster import system_i, system_ii, uniform_cluster
from repro.comm import Communicator
from repro.runtime import SpmdRuntime


def demo_conversion():
    print("=== sharded-layout conversion search ===")
    mesh = {"x": 2, "y": 2}
    cases = [
        ({0: ["x"]}, {1: ["x"]}, "row-shard -> col-shard"),
        ({0: ["x", "y"]}, {0: ["y"], 1: ["x"]}, "double-row -> mixed"),
    ]
    for src_a, dst_a, label in cases:
        src, dst = Layout.make(2, src_a), Layout.make(2, dst_a)
        plan = plan_conversion(src, dst, (8, 8), mesh)
        print(f"{label}: {plan.steps}  (modeled {plan.cost*1e6:.1f} us)")

    # execute the first plan SPMD and verify it equals direct resharding
    src, dst = Layout.make(2, cases[0][0]), Layout.make(2, cases[0][1])
    plan = plan_conversion(src, dst, (8, 8), mesh)
    global_t = np.arange(64, dtype=np.float32).reshape(8, 8)

    def prog(ctx):
        comm = Communicator.world(ctx)
        coord = {"x": ctx.rank // 2, "y": ctx.rank % 2}
        comms = {
            "x": comm.split(color=coord["y"], key=coord["x"]),
            "y": comm.split(color=coord["x"], key=coord["y"]),
        }
        local = np.split(global_t, 2, axis=0)[coord["x"]].copy()
        out = convert_payload(local, plan, comms, coord)
        expect = np.split(global_t, 2, axis=1)[coord["x"]]
        assert np.array_equal(out, expect)
        return True

    assert all(SpmdRuntime(uniform_cluster(4)).run(prog))
    print("plan executed SPMD: converted shards match direct resharding\n")


def demo_scoring():
    print("=== hardware-aware strategy scoring ===")
    work = Workload(n_layers=16, hidden=3072, n_heads=48, seq_len=196)
    picks = {}
    for name, cluster in (("System I", system_i()), ("System II", system_ii())):
        t = {
            mode: score_candidate(
                cluster, work,
                StrategyCandidate(data=2, tensor=4, mode=mode, pipeline=1,
                                  algorithm="auto"),
                global_batch=256,
            ).step_seconds
            for mode in ("1d", "2d")
        }
        picks[name] = min(t, key=t.get)
        print(f"{name}: tensor=4 -> prefer {picks[name].upper()}  "
              f"(1d {t['1d']:.3f}s vs 2d {t['2d']:.3f}s)")
    assert picks == {"System I": "1d", "System II": "2d"}
    print("matches the paper's Fig 11 conclusion\n")


if __name__ == "__main__":
    demo_conversion()
    demo_scoring()
    print("OK")
