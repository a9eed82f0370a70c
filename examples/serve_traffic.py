"""Serving under traffic: the load knee, determinism, and rank loss.

Serves a small GPT-style decoder on a 2-rank tensor-parallel replica
(simulated) three ways:

1. a closed-loop capacity probe (32 zero-think clients) that measures
   the replica's saturated service rate, declared as a ``serve`` config
   section and run by ``repro.launch``,
2. an open-loop Poisson sweep at 0.5x / 1.0x / 2.0x that capacity —
   goodput saturates while p99 TTFT blows up past the knee, and the
   same seed reproduces the identical report bit for bit,
3. the near-knee workload with rank 1 killed mid-run — the engine
   records a typed failure, charges recovery downtime, replays the lost
   KV work, and the report prices the SLO hit instead of crashing.

Run:  python examples/serve_traffic.py
"""

import repro
from repro.cluster import uniform_cluster
from repro.faults import FaultPlan
from repro.serve import (
    ClosedLoopTraffic,
    ModelSpec,
    OpenLoopTraffic,
    serve_traffic,
)

WORLD = 2
DECODER = dict(n_layers=4, hidden=1024, n_heads=16)
MODEL = ModelSpec(**DECODER)
LENGTHS = dict(prompt_tokens=(16, 64), max_new_tokens=(8, 32))
POOL = dict(max_batch_tokens=256, kv_blocks=192)
KNOBS = dict(world_size=WORLD, **POOL)

if __name__ == "__main__":
    # 1) capacity probe: self-throttling clients saturate the replica; the
    # config's serve section makes launch() a serving session, which is
    # the session serve_traffic() runs from objects
    config = dict(serve=dict(
        model=DECODER,
        traffic=dict(kind="closed", clients=32, n_requests=128, seed=7,
                     **LENGTHS),
        **POOL))
    probe = repro.launch(config, uniform_cluster(WORLD), world_size=WORLD)
    direct = serve_traffic(
        MODEL, ClosedLoopTraffic(clients=32, n_requests=128, seed=7,
                                 **LENGTHS),
        **KNOBS)
    assert probe.to_dict() == direct.to_dict(), "launch served another session"
    capacity = probe.completed_per_sec
    print(f"capacity probe: {probe.goodput_tokens_per_sec:.0f} tok/s "
          f"({capacity:.0f} req/s) at 32 closed-loop clients\n")

    # 2) open-loop sweep around the knee
    reports = {}
    for mult in (0.5, 1.0, 2.0):
        traffic = OpenLoopTraffic(rate=capacity * mult, n_requests=128,
                                  seed=11, **LENGTHS)
        rep = serve_traffic(MODEL, traffic, **KNOBS)
        reports[mult] = rep
        print(f"--- offered {mult:g}x capacity ---")
        print(rep.format())
    under, mid, over = reports[0.5], reports[1.0], reports[2.0]
    assert over.p99_ttft > under.p99_ttft, "no queueing delay past the knee"
    # offered load doubled from 1.0x to 2.0x; saturating goodput cannot
    assert over.goodput_tokens_per_sec < 2.0 * mid.goodput_tokens_per_sec, \
        "goodput kept scaling with offered load — never saturated"
    print("\nknee confirmed: p99 TTFT "
          f"{under.p99_ttft * 1e3:.2f}ms -> {over.p99_ttft * 1e3:.2f}ms, "
          "goodput saturating")

    # same seed, same report — scheduling is bitwise deterministic
    again = serve_traffic(
        MODEL, OpenLoopTraffic(rate=capacity * 2.0, n_requests=128,
                               seed=11, **LENGTHS),
        **KNOBS)
    assert again.to_dict() == over.to_dict(), "per-seed determinism broke"
    print("rerun with the same seed is bitwise identical. OK\n")

    # 3) rank loss mid-serving: priced, not fatal
    base = reports[1.0]
    plan = FaultPlan(seed=3).crash(1, at_time=base.makespan * 0.4)
    faulted = serve_traffic(
        MODEL, OpenLoopTraffic(rate=capacity, n_requests=128, seed=11,
                               **LENGTHS),
        fault_plan=plan, recovery_seconds=base.makespan * 0.15, **KNOBS)
    print("--- rank 1 lost at 0.4x makespan ---")
    print(faulted.format())
    assert faulted.restarts == 1 and faulted.failures, "crash not recorded"
    assert faulted.n_completed == base.n_completed, "requests were dropped"
    assert faulted.p99_ttft > base.p99_ttft, "rank loss priced nothing"
    retained = faulted.goodput_tokens_per_sec / base.goodput_tokens_per_sec
    print(f"\nrank loss priced: goodput retained {retained:.1%}, "
          f"p99 TTFT {base.p99_ttft * 1e3:.2f}ms -> "
          f"{faulted.p99_ttft * 1e3:.2f}ms, "
          f"all {faulted.n_completed} requests completed. OK")
