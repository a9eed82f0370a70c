"""Debugging desyncs with the SPMD sanitizer.

Three acts on 4 simulated GPUs:

1. A *desynchronized* program — rank 2 computes a differently-shaped
   gradient bucket, so its ``all_reduce`` disagrees with everyone else's.
   Without the sanitizer this would be a shape error deep inside the
   reduction (or, for a skipped call, a bare ``CollectiveTimeout`` once
   every live rank is parked); with it, ``CollectiveMismatch`` names the
   guilty rank and the exact source line within one rendezvous.
2. A *skipped* collective — rank 1 returns early.  The moment the other
   ranks are all parked, the sanitizer explains their wait:
   ``CollectiveDesync`` names rank 1 as exited.
3. *Record/replay* — a clean run's op stream is saved as a golden file;
   a "refactored" run that drifts is pinpointed at the first divergent
   (rank, step, op).

Run:  python examples/debug_desync.py
"""

import numpy as np

from repro.cluster import system_i
from repro.comm.communicator import Communicator
from repro.runtime import SpmdRuntime
from repro.runtime.errors import RemoteRankError
from repro.sanitize import (
    CollectiveDesync,
    CollectiveMismatch,
    CommSanitizer,
    ReplayDivergence,
    first_divergence,
)

WORLD = 4
cluster = system_i()


# -- act 1: mismatched collective ------------------------------------------

def mismatched_training_step(ctx):
    comm = Communicator.world(ctx)
    # rank 2 "forgot" a weight-tying fix: its bucket has the wrong size
    bucket = np.ones(6 if ctx.rank == 2 else 8, dtype=np.float32)
    return comm.all_reduce(bucket, op="sum")


print("=== 1. mismatched all_reduce ===")
rt = SpmdRuntime(cluster, WORLD, sanitize=CommSanitizer())
try:
    rt.run(mismatched_training_step)
    raise SystemExit("expected a CollectiveMismatch")
except RemoteRankError as e:
    assert isinstance(e.cause, CollectiveMismatch)
    assert e.cause.divergent_ranks == (2,)
    print(f"caught: {e.cause}\n")


# -- act 2: skipped collective ---------------------------------------------

def skipping_program(ctx):
    comm = Communicator.world(ctx)
    comm.barrier()
    if ctx.rank == 1:
        return "rank 1 bailed"  # skips the final all_reduce
    return comm.all_reduce(np.ones(4))


print("=== 2. skipped collective (a bare timeout without the sanitizer) ===")
rt = SpmdRuntime(cluster, WORLD, sanitize=CommSanitizer())
try:
    rt.run(skipping_program)
    raise SystemExit("expected a CollectiveDesync")
except RemoteRankError as e:
    assert isinstance(e.cause, CollectiveDesync)
    assert e.cause.missing_ranks == (1,)
    print(f"caught: {e.cause}\n")


# -- act 3: record / replay -------------------------------------------------

def clean_program(ctx):
    comm = Communicator.world(ctx)
    x = np.full(4, float(ctx.rank + 1), dtype=np.float32)
    total = comm.all_reduce(x)
    return comm.broadcast(total if ctx.rank == 0 else np.zeros_like(total),
                          root=0).sum()


def refactored_program(ctx):
    comm = Communicator.world(ctx)
    x = np.full(4, float(ctx.rank + 1), dtype=np.float32)
    total = comm.all_reduce(x)
    # the "refactor" swapped the broadcast for a redundant all_reduce
    return comm.all_reduce(total).sum()


print("=== 3. record a golden run, replay the refactor against it ===")
recorder = CommSanitizer(checksum=True)
rt = SpmdRuntime(cluster, WORLD, sanitize=recorder)
baseline = rt.run(clean_program)
recorder.save_golden("desync_golden.json")
print(f"recorded {sum(recorder.summary()['stream_lengths'].values())} ops "
      f"across {WORLD} ranks -> desync_golden.json")

rt = SpmdRuntime(cluster, WORLD, sanitize=CommSanitizer(
    checksum=True, replay="desync_golden.json"))
try:
    rt.run(refactored_program)
    raise SystemExit("expected a ReplayDivergence")
except RemoteRankError as e:
    assert isinstance(e.cause, ReplayDivergence)
    assert e.cause.step == 1
    print(f"caught: {e.cause}")

# the offline diff agrees with the live verdict
drifted = CommSanitizer(checksum=True)
SpmdRuntime(cluster, WORLD, sanitize=drifted).run(refactored_program)
div = first_divergence(recorder.golden(), drifted.golden())
assert div is not None and div.step == 1
print(f"offline diff agrees: first divergence at rank {div.rank} "
      f"step {div.step}")

# and the recording replays clean against an identical run
SpmdRuntime(cluster, WORLD, sanitize=CommSanitizer(
    checksum=True, replay="desync_golden.json")).run(clean_program)
print(f"clean program conforms to its golden (baseline result "
      f"{baseline[0]:.1f})")

print("\nall three desync classes caught with typed, rank-attributed errors")
