"""Comm/compute overlap: hide gradient all-reduces behind backward.

Data-parallel training spends a large slice of every step averaging
gradients.  With ``comm.overlap`` the DDP wrapper lays gradient buckets
over *reversed* parameter-registration order and issues each bucket's
all-reduce nonblocking from a gradient hook the moment its last gradient
lands — so while backward is still computing layer k's gradients, layers
k+1..N are already on the wire.  ``sync()`` then only waits the handles:
step time shrinks by the *hidden* portion of comm, and the numerics stay
bitwise identical (the parity suite asserts this across DDP, ZeRO and
pipeline schedules).

This script trains the same spec-mode ViT stack twice — overlap off and
on — and prints the step-time delta, the per-rank exposed/overlapped
split from the comm-stream clocks, and the trace-report overlap table.

Run:  PYTHONPATH=src python examples/overlap_ddp.py
"""

from repro.cluster import system_ii
from repro.comm import SpecArray
from repro.config import Config
from repro.context import ParallelContext
from repro.nn import Sequential, TransformerLayer
from repro.parallel.data import DistributedDataParallel
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor
from repro.trace import TraceReport, Tracer

WORLD, LAYERS, HIDDEN, HEADS = 8, 16, 3072, 48
BATCH, PATCHES = 64, 196


def step_time(overlap: bool, tracer=None):
    cluster = system_ii()
    cluster.reset()
    rt = SpmdRuntime(cluster, WORLD, comm_overlap=overlap, tracer=tracer)

    def prog(ctx):
        pc = ParallelContext(ctx, Config.from_dict({}))
        vit = Sequential(
            [TransformerLayer(HIDDEN, HEADS, dtype="float16") for _ in range(LAYERS)],
            checkpoint=True,
        )
        ddp = DistributedDataParallel(vit, pc, overlap=overlap)
        x = Tensor(
            SpecArray((BATCH // WORLD, PATCHES, HIDDEN), "float16"),
            requires_grad=True,
        )
        t0 = ctx.clock.time
        ddp(x).sum().backward()
        ddp.sync()
        return ctx.clock.time - t0

    seconds = max(rt.run(prog, materialize=False))
    return seconds, rt


print(f"=== DDP ViT on System II: {WORLD} ranks, {LAYERS}x{HIDDEN} fp16 ===\n")

t_off, _ = step_time(overlap=False)
tracer = Tracer()
t_on, rt = step_time(overlap=True, tracer=tracer)

print(f"overlap off : {t_off * 1e3:8.2f} ms/step")
print(f"overlap on  : {t_on * 1e3:8.2f} ms/step")
print(f"reduction   : {1 - t_on / t_off:8.1%}  ({t_off / t_on:.2f}x)\n")

print("per-rank comm-stream split (seconds):")
print(f"{'rank':>4}  {'stream':>9}  {'exposed':>9}  {'overlapped':>10}  hidden")
for r, s in enumerate(rt.comm_streams):
    busy = s.busy_seconds()
    hidden = s.overlapped_seconds / busy if busy else 0.0
    print(
        f"{r:4d}  {busy:9.4f}  {s.exposed_seconds:9.4f}  "
        f"{s.overlapped_seconds:10.4f}  {hidden:6.1%}"
    )

counters = rt.group(tuple(range(WORLD))).counters
print(
    f"\ngroup totals: exposed {counters.exposed_seconds_total:.4f}s, "
    f"overlapped {counters.overlapped_seconds_total:.4f}s "
    f"over {counters.calls_total} collectives / "
    f"{counters.bytes_total / 2**30:.2f} GiB on the wire"
)

print("\ntrace report (note the comm-stream overlap table):\n")
print(TraceReport.from_tracer(tracer).format(topk=3))

assert t_on < t_off, "overlap must not slow the step down"
assert counters.overlapped_seconds_total > 0.0
print("\nOK: step got faster; every hidden second is accounted for.")
