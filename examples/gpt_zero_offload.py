"""Heterogeneous training of GPT-2 10B with ZeRO-3 sharding + offloading
(§5.4 / Fig 14 of the paper).

Runs one spec-mode training step of a 10-billion-parameter GPT-2 on the
simulated System II (8x A100-80GB) under three placement policies:

* ``none``     — plain ZeRO-3, everything on the GPU
* ``static``   — DeepSpeed-style: all shards + optimizer states pinned on
  the host, PCIe traffic every step
* ``adaptive`` — Colossal-AI: keep chunks on the GPU while memory allows

and the adaptive policy once more with the overlap scheduler on (each
block's all-gathers prefetched while the block before it computes, the
gradient reduce-scatters issued nonblocking).  After its timed step every
run reads the weights back with ``gather_parameters``, as an evaluation or
a checkpoint would.

Run:  python examples/gpt_zero_offload.py
"""

from repro.cluster import system_ii
from repro.comm import Communicator, SpecArray
from repro.comm.cost import CostModel
from repro.models import build_gpt_blocks, gpt2_10b
from repro.runtime import SpmdRuntime
from repro.utils.units import GB
from repro.zero import AdaptivePolicy, StaticPolicy, ZeroOffloadEngine
from repro.zero.policies import NoOffloadPolicy

BATCH = 4
CFG = gpt2_10b(seq_len=1024)

POLICIES = {
    "none": NoOffloadPolicy,
    "static": StaticPolicy,
    "adaptive": AdaptivePolicy,
}
#: (row label, policy, overlap scheduler on)
RUNS = [(name, name, False) for name in POLICIES] + [("adaptive+ov", "adaptive", True)]


def run_policy(name, overlap=False, n_gpus=8):
    cluster = system_ii()
    rt = SpmdRuntime(cluster, world_size=n_gpus)

    def prog(ctx):
        comm = Communicator.world(ctx)
        blocks, criterion = build_gpt_blocks(CFG)
        kwargs = dict(activation_headroom=10 * GB) if name == "adaptive" else {}
        policy = POLICIES[name](
            ctx.device, ctx.cpu, CostModel(ctx.cluster), ctx.rank, **kwargs
        )
        engine = ZeroOffloadEngine(
            ctx, blocks, comm, policy, criterion=criterion, chunk_mb=64, lr=1e-4,
            overlap=overlap,
        )
        ids = SpecArray((BATCH, CFG.seq_len), "int64")
        engine.train_step(ids, ids)  # warm-up (policy placement settles)
        # the peaks below are the timed step's
        ctx.device.memory.reset_peak()
        ctx.cpu.memory.reset_peak()
        t0 = ctx.clock.time
        engine.train_step(ids, ids)
        step_time = ctx.clock.time - t0
        gpu_peak, cpu_peak = ctx.device.memory.peak / GB, ctx.cpu.memory.peak / GB
        t0 = ctx.clock.time
        engine.gather_parameters()  # read the weights back
        return (
            step_time,
            engine.gpu_param_fraction(),
            gpu_peak,
            cpu_peak,
            ctx.clock.time - t0,
        )

    try:
        res = rt.run(prog, materialize=False)
    except Exception as e:  # plain ZeRO-3 may OOM — that is the point
        return None, str(type(e.cause).__name__ if hasattr(e, "cause") else e)
    return res[0], None


if __name__ == "__main__":
    print(f"GPT-2 {CFG.param_count()/1e9:.1f}B, batch {BATCH}/GPU, 8x A100-80GB (System II)\n")
    print(f"{'policy':11s} {'step(s)':>8s} {'samples/s':>10s} {'gpu-res%':>9s} "
          f"{'gpu peak':>9s} {'cpu peak':>9s} {'read-back(s)':>13s}")
    times = {}
    for label, name, overlap in RUNS:
        result, err = run_policy(name, overlap)
        if result is None:
            print(f"{label:11s} {'OOM' if 'Memory' in err else err:>8s}")
            continue
        dt, frac, gpeak, cpeak, gather_s = result
        times[label] = dt
        print(
            f"{label:11s} {dt:8.2f} {8*BATCH/dt:10.2f} {100*frac:8.0f}% "
            f"{gpeak:8.1f}G {cpeak:8.1f}G {gather_s:13.3f}"
        )
    if "static" in times and "adaptive" in times:
        print(f"\nadaptive placement speedup over static offload: "
              f"{times['static']/times['adaptive']:.2f}x  (Fig 14 shape)")
    if "adaptive" in times and "adaptive+ov" in times:
        assert times["adaptive+ov"] <= times["adaptive"], times
        print(f"overlap scheduler on the adaptive step: "
              f"{times['adaptive']/times['adaptive+ov']:.2f}x")
