"""Projection execution mode: capture at 8 ranks, project to 1024.

The threaded SPMD runtime needs a host thread per simulated rank, which
caps it around a few dozen ranks.  ``repro.project`` splits *what ops
happen per rank* from *who executes them*: :func:`capture_run` records
each rank's op stream (spec-mode compute advances, priced collectives,
comm-stream issue/wait events) during one real run, and :func:`project`
replays that stream analytically — no threads — either

* in ``recorded`` mode, reproducing the captured run's step time, clock
  breakdowns and wire counters bit-for-bit (the fidelity contract
  ``pytest -m projection`` enforces), or
* in ``model`` mode, re-pricing every transfer through a closed-form
  :class:`Fabric` with the data-parallel world widened by an integer
  factor — an 8-rank capture answers "what would this step cost on 1024
  GPUs?" in well under a second.

This script captures a GPT-style DDP training step (overlap on) at 8
ranks, verifies the recorded replay matches the capture exactly, then
projects it to 64 / 256 / 1024 ranks on a System-III-like fabric and
prints step time, comm volume and the hidden-comm fraction at each scale.

Run:  PYTHONPATH=src python examples/project_1024_ranks.py
"""

import time

from repro.cluster import system_iii, uniform_cluster
from repro.comm import SpecArray
from repro.config import Config
from repro.context import ParallelContext
from repro.nn import Sequential, TransformerLayer
from repro.parallel.data import DistributedDataParallel
from repro.project import Fabric, capture_run, project
from repro.tensor import Tensor

WORLD, LAYERS, HIDDEN, HEADS = 8, 4, 1024, 16
BATCH_PER_RANK, SEQ = 4, 256


def prog(ctx):
    pc = ParallelContext(ctx, Config.from_dict({}))
    gpt = Sequential(
        [TransformerLayer(HIDDEN, HEADS, dtype="float16") for _ in range(LAYERS)],
        checkpoint=True,
    )
    ddp = DistributedDataParallel(gpt, pc, overlap=True)
    x = Tensor(
        SpecArray((BATCH_PER_RANK, SEQ, HIDDEN), "float16"),
        requires_grad=True,
    )
    ddp(x).sum().backward()
    ddp.sync()


def main():
    t0 = time.perf_counter()
    _results, trace = capture_run(
        uniform_cluster(WORLD), prog, world_size=WORLD, comm_overlap=True
    )
    print(
        f"captured {trace.event_count()} events over {trace.world_size} ranks "
        f"in {time.perf_counter() - t0:.2f}s wall"
    )

    # recorded replay: same numbers as the threaded run, zero threads
    recorded = project(trace, mode="recorded")
    assert recorded.step_time == trace.max_time
    print(f"recorded replay step time {recorded.step_time:.4f}s (== capture)\n")

    # model replay: widen the data-parallel world on a two-level fabric
    fabric = Fabric.from_cluster(system_iii(n_nodes=2))
    for target in (64, 256, 1024):
        t0 = time.perf_counter()
        rep = project(trace, axes={"dp": target // WORLD}, fabric=fabric)
        wall = time.perf_counter() - t0
        print(f"projected to {rep.target_world} ranks ({wall:.3f}s wall):")
        print(rep.format())
        print()


if __name__ == "__main__":
    main()
