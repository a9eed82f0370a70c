"""The conformance oracle: one relation table over every training program.

Colossal-AI's runtime features change how a step runs, never what it
computes.  Each program below is written once; :data:`CELLS` is the product
of the programs with the collective algorithms, overlap off/on and the
clusters each runs on, and every relation of the table runs on every cell:

1. ``capture``: a captured run == a plain run;
2. ``replay``: the recorded replay of the capture == the plain threaded
   run's end-state — step time, per-rank clock / stream breakdowns and
   device peaks, per-group counters and, replayed under a ``Tracer``, the
   timeline spans and ``TraceReport`` tables (DESIGN §4q);
3. ``pool``: unpooled == pooled;
4. ``sanitize``: sanitized == plain;
5. ``overlap``: overlap on == off in results and traffic, makespan ≤;
6. ``spec``: spec mode == real mode in makespan, breakdowns, counters and
   device peaks;
7. ``auto``: the makespan under ``auto`` (the cheapest family per call)
   ≤ ``ring``'s;
8. ``classed``: a spec run, which may start rank 0 alone as every rank's
   representative (DESIGN §4ab), == the same spec run forced onto one
   thread per rank — results, clocks and breakdowns, stream times and
   exposed / overlapped seconds, counters, device peaks and group sequence
   numbers — and takes the path :data:`CLASSED` names, for the reason it
   names.

"==" is bitwise: results are compared as bytes, times and counters as
floats and ints.  Relations 1-4 and 6 compare the cell's plain run (pooled,
real mode, under a ``Tracer``) with one run that changes one thing and
drops the tracer.  Relations 5 and 7 compare the plain runs of the cell's
overlap-on and -off siblings, and of its ``auto`` and ``ring`` siblings;
each plain run is made once, however many cells share it.  The strict
facts of single cells follow the table as named tests.

To add a program, write its rank function beside the others and give it a
:data:`PROGRAMS` row; to add a relation, write ``rel_<name>(cell)`` and give
it a :data:`RELATIONS` row with the lane mark it belongs to.
"""

import dataclasses
import functools
import itertools
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np
import pytest

from repro.autograd import ops
from repro.cluster import system_ii, uniform_cluster
from repro.comm import Communicator, SpecArray
from repro.comm.cost import CostModel
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.engine import initialize
from repro.engine.initialize import launch
from repro.nn import CrossEntropyLoss, FeedForward, Linear, Sequential
from repro.optim import SGD, Adam
from repro.parallel.data import DistributedDataParallel, shard_batch
from repro.parallel.pipeline import GPipeSchedule, OneFOneBSchedule, partition_uniform
from repro.parallel.tensor1d import Mode1D
from repro.project import CaptureRecorder, project
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor
from repro.trace import TraceReport, Tracer
from repro.zero import ZeroOffloadEngine
from repro.zero.policies import NoOffloadPolicy

from test_comm_golden import _storm
from test_plan_golden import SEED, hybrid_gpt_step

H, C, B = 16, 4, 8
CRITERION = CrossEntropyLoss()

# -- the programs ----------------------------------------------------------


def _rng(seed):
    return np.random.default_rng(seed)


def batch(step):
    rng = _rng((7, step))
    return (rng.standard_normal((2 * B, H)).astype(np.float32),
            rng.integers(0, C, 2 * B))


def mlp():
    """Three linears with GELUs between: ~2 KiB buckets split it in several."""
    return Sequential([Linear(H, 32, rng=_rng(11)), ops.gelu,
                       Linear(32, 32, rng=_rng(12)), ops.gelu,
                       Linear(32, C, rng=_rng(13))])


def train(engine, pc, steps):
    """``steps`` Listing-1 steps on this data-parallel rank's share of :func:`batch`."""
    losses = []
    for s in range(steps):
        X, Y = batch(s)
        engine.zero_grad()
        loss = engine.criterion(engine(Tensor(shard_batch(X, pc).copy())), shard_batch(Y, pc))
        engine.backward(loss)
        engine.step()
        losses.append(loss)
    return losses


def ddp_prog(overlap, steps=2, bucket_mb=0.002):
    """SGD on a DDP-wrapped :func:`mlp`, gradient buckets of ``bucket_mb``."""

    def prog(ctx):
        pc = ParallelContext(ctx, Config.from_dict({}))
        model = mlp()
        ddp = DistributedDataParallel(model, pc, bucket_mb=bucket_mb, overlap=overlap)
        engine = initialize(ddp, SGD(model.parameters(), lr=0.05), CRITERION, pc=pc)
        return train(engine, pc, steps), model.parameters()

    return prog


def zero_prog(overlap, steps=2):
    """ZeRO-3 over three blocks, chunks of 1 KiB, no offload."""

    def prog(ctx):
        blocks = [Sequential([Linear(H, H, rng=_rng(21)), ops.gelu]),
                  Sequential([Linear(H, H, rng=_rng(22)), ops.gelu]),
                  Linear(H, C, rng=_rng(23))]
        pol = NoOffloadPolicy(ctx.device, ctx.cpu, CostModel(ctx.cluster), ctx.rank)
        eng = ZeroOffloadEngine(
            ctx, blocks, Communicator.world(ctx), pol, criterion=CRITERION,
            chunk_mb=0.001, lr=1e-2, param_dtype="float32", overlap=overlap)
        n = 2 * B // ctx.world_size
        mine = slice(ctx.rank * n, (ctx.rank + 1) * n)
        losses = [eng.train_step(*(a[mine] for a in batch(s))) for s in range(steps)]
        eng.gather_parameters()
        return losses, [b.parameters() for b in blocks]

    return prog


def pipeline_prog(schedule, stages, microbatches=4):
    """Four ``Linear`` + GELU layers and a head split over ``stages``."""
    X, Y = batch(0)
    config = Config.from_dict(dict(parallel=dict(pipeline=stages),
                                   num_microbatches=microbatches))

    def prog(ctx):
        pc = ParallelContext(ctx, config)
        first, last = pc.is_first_pipeline_stage(), pc.is_last_pipeline_stage()
        s, e = partition_uniform(4, stages)[pc.pp_rank]
        layers = [m for i in range(s, e) for m in (Linear(H, H, rng=_rng((31, i))), ops.gelu)]
        stage = Sequential(layers + ([Linear(H, C, rng=_rng(35))] if last else []))
        loss = schedule(pc, microbatches).run(
            stage, X.copy() if first else None, Y if last else None, CRITERION)
        return loss, [p.grad for p in stage.parameters()]

    return prog


def tp1d_prog(size):
    """One 1D tensor-parallel ``FeedForward``, forward and backward."""
    x_g = _rng(3).standard_normal((B, H)).astype(np.float32)
    config = Config.from_dict(dict(parallel=dict(tensor=dict(size=size, mode="1d"))))

    def prog(ctx):
        comm = ParallelContext(ctx, config).comm(ParallelMode.TENSOR)
        mlp = FeedForward(H, mlp_ratio=2, rng=_rng(0), mode=Mode1D(comm))
        x = Tensor(x_g.copy(), requires_grad=True)
        mlp(x).sum().backward()
        return x.grad

    return prog


def edge_ops_prog(ctx):
    """What no training program issues: ring pass, size-1
    subgroup collectives, a polled ``isend`` and ``iallreduce``, all-to-all, barrier."""
    comm = Communicator.world(ctx)
    x = np.full(4096, float(ctx.rank), dtype=np.float32)
    comm.ring_pass(x, shift=1)
    solo = comm.subgroup([comm.rank])
    solo.all_reduce(x)
    solo.all_gather(x)
    if comm.rank == 0:
        send = comm.isend(x, 1)
        send.test()
        send.wait()
    elif comm.rank == 1:
        comm.recv(0)
    reduced = comm.iallreduce(x)
    reduced.test()
    reduced.wait()
    comm.all_to_all([x[:1024]] * comm.size)
    comm.barrier()


def adam_prog(overlap, zero, fp16, steps=2):
    """``launch`` + ``initialize`` + ``Adam`` on :func:`mlp`: ``zero.stage``
    swaps in a ZeRO-1/2 optimizer, ``fp16`` casts the model, and
    ``comm.overlap`` auto-wraps DDP at stage 0 unless fp16 is on."""
    config = dict(zero=dict(stage=zero), fp16=dict(enabled=fp16), comm=dict(overlap=overlap))

    def prog(ctx, pc):
        model = mlp()
        engine = initialize(model, Adam(model.parameters(), lr=1e-2), CRITERION, pc=pc)
        assert isinstance(engine.model, DistributedDataParallel) is (
            overlap and not fp16 and zero == 0)
        return train(engine, pc, steps), model.parameters()

    return config, prog


def twin_prog(overlap):
    """One DDP step of :func:`mlp` on the same batch on every rank, reading no
    rank: the program a spec run executes on rank 0 alone, the others
    copying it (DESIGN §4ab)."""
    X, Y = batch(0)

    def prog(ctx):
        pc = ParallelContext(ctx, Config.from_dict({}))
        ddp = DistributedDataParallel(mlp(), pc, bucket_mb=0.002, overlap=overlap)
        CRITERION(ddp(Tensor(X[:B].copy())), Y[:B]).backward()
        ddp.sync()

    return prog


def _no_result(step):
    """The storm and the hybrid step return the rank's clock: ``Run.times``."""
    return lambda ctx: step(ctx) and None


@dataclasses.dataclass(frozen=True)
class Cell:
    program: str
    cluster: str
    world: int
    algorithm: str
    overlap: bool
    options: Tuple[Tuple[str, Any], ...] = ()

    def __str__(self):
        opts = "".join(f"-{k}{v:d}" for k, v in self.options)
        return (f"{self.program}{opts}-{self.cluster}{self.world}-{self.algorithm}"
                f"-{'overlap' if self.overlap else 'blocking'}")

    def sibling(self, **changes):
        return dataclasses.replace(self, **changes)


class Program(NamedTuple):
    """A program and the slice of the product it runs on.  ``make(cell)``
    returns a rank function, or ``(config, fn(ctx, pc))`` for ``launch``."""
    make: Callable
    places: Tuple[Tuple[str, int], ...]
    algorithms: Tuple[str, ...] = ("ring", "tree", "hierarchical")
    overlaps: Tuple[bool, ...] = (False, True)
    options: Dict[str, tuple] = {}
    seed: int = 0


CLUSTERS = {"uniform": uniform_cluster, "system_ii": lambda world: system_ii()}
PROGRAMS = {
    "ddp": Program(lambda c: ddp_prog(c.overlap), (("system_ii", 4), ("uniform", 4))),
    "ddp_one_bucket": Program(lambda c: ddp_prog(c.overlap, steps=1, bucket_mb=25.0),
                              (("uniform", 2),), ("ring",)),
    "ddp16": Program(lambda c: ddp_prog(c.overlap, steps=1), (("uniform", 16),),
                     ("ring",), (True,)),
    "twin": Program(lambda c: twin_prog(c.overlap), (("system_ii", 4), ("uniform", 8)),
                    ("ring",)),
    "zero3": Program(lambda c: zero_prog(c.overlap), (("uniform", 2),),
                     ("ring", "hierarchical")),
    "gpipe": Program(lambda c: pipeline_prog(GPipeSchedule, c.world),
                     (("uniform", 2), ("uniform", 4)), ("ring",)),
    "1f1b": Program(lambda c: pipeline_prog(OneFOneBSchedule, c.world),
                    (("uniform", 2), ("uniform", 4)), ("ring",)),
    "tp1d": Program(lambda c: tp1d_prog(c.world), (("uniform", 4),), ("ring", "tree")),
    "edge": Program(lambda c: edge_ops_prog, (("uniform", 4), ("system_ii", 4)), ("ring",)),
    "storm": Program(lambda c: _no_result(_storm), (("system_ii", 8),), ("auto",), seed=1),
    "hybrid": Program(lambda c: _no_result(hybrid_gpt_step()), (("uniform", 8),), ("ring",),
                      (False,), seed=SEED),
    "adam": Program(lambda c: adam_prog(c.overlap, **dict(c.options)), (("system_ii", 4),),
                    ("ring", "hierarchical"), options={"zero": (0, 1, 2), "fp16": (False, True)}),
}


def _generate():
    for name, prog in PROGRAMS.items():
        for (cluster, world), algorithm, overlap, values in itertools.product(
                prog.places, prog.algorithms, prog.overlaps,
                itertools.product(*prog.options.values())):
            yield Cell(name, cluster, world, algorithm, overlap,
                       tuple(zip(prog.options, values)))


CELLS = list(_generate())


#: each program's spec run (DESIGN §4ab): ``SpmdRuntime.path`` and ``reason``
CLASSED = {
    "ddp": ("caught_up", "read of pc.dp_rank"),
    "ddp_one_bucket": ("caught_up", "read of pc.dp_rank"),
    "ddp16": ("caught_up", "read of pc.dp_rank"),
    "twin": ("representative", None),
    "zero3": ("caught_up", "read of ctx.rank"),
    "gpipe": ("caught_up", "read of pc.pp_rank"),
    "1f1b": ("caught_up", "read of pc.pp_rank"),
    "tp1d": ("caught_up", "read of comm.rank"),
    "edge": ("caught_up", "read of ctx.rank"),
    "storm": ("caught_up", "read of ctx.rank"),
    "hybrid": ("caught_up", "group (0, 1)"),
    "adam": ("caught_up", "read of pc.dp_rank"),
}


def cells(program, **where):
    return [c for c in CELLS if c.program == program
            and all(getattr(c, k) == v for k, v in where.items())]


# -- running a cell --------------------------------------------------------

COUNTER_FIELDS = (
    "bytes_total", "elements_total", "calls_total", "retries_total", "retry_bytes_total",
    "by_op_bytes", "by_op_elements", "by_op_calls", "by_op_retries", "by_algorithm_bytes",
    "by_algorithm_calls", "exposed_seconds_total", "overlapped_seconds_total")
#: the span categories the timeline rules emit
TIMELINE_CATS = ("collective", "comm_stream", "overlap", "p2p")


def bits(x):
    """``x`` with every payload as its bytes and every float as its hex:
    two results are bitwise identical iff their ``bits`` are ``==``."""
    if isinstance(x, Tensor):
        x = x.payload
    if isinstance(x, (list, tuple)):
        return tuple(bits(v) for v in x)
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, SpecArray):
        return "spec", x.dtype, x.shape
    return x.hex() if isinstance(x, float) else x


def timeline_spans(tracer):
    """Sorted multiset: a threaded run appends in its host interleaving."""
    return sorted(
        (s.rank, s.cat, s.name, s.t0, s.t1, repr(sorted(s.args.items())))
        for s in tracer.spans() if s.cat in TIMELINE_CATS)


def report_tables(tracer):
    rep = TraceReport.from_tracer(tracer)
    return (rep.collectives, rep.stream_seconds, rep.exposed_comm, rep.overlapped_comm)


@dataclasses.dataclass
class Run:
    """What a finished run leaves behind, read off its runtime."""
    results: Any
    makespan: float
    times: list
    clocks: list
    streams: list
    peaks: list
    counters: dict
    pool: Optional[Tuple[int, int]]
    spans: Optional[list] = None
    tables: Optional[tuple] = None
    trace: Any = None
    #: stream heads, group sequence numbers, and how the run ran
    stream_times: Optional[list] = None
    seqs: Optional[dict] = None
    path: Optional[Tuple[str, Optional[str]]] = None

    def end_state(self):
        return (self.makespan, self.times, self.clocks, self.streams, self.peaks,
                self.counters)


def execute(cell, *, traced=False, capture=False, pool=True, sanitize=False,
            materialize=True, threaded=False):
    """One run of ``cell`` on a fresh cluster (a shared one would let the
    first run's finalizers free into the second run's memory pools);
    ``threaded`` keeps a spec run on one thread per rank, through the
    runtime's test seam."""
    tracer = Tracer() if traced else None
    recorder = CaptureRecorder() if capture else None
    rt = SpmdRuntime(CLUSTERS[cell.cluster](cell.world), cell.world,
                     comm_algorithm=cell.algorithm, comm_overlap=cell.overlap,
                     tracer=tracer, sanitize=sanitize or None, capture=recorder,
                     buffer_pool=pool)
    rt._represent = not threaded
    program = PROGRAMS[cell.program]
    prog = program.make(cell)
    if isinstance(prog, tuple):
        config, fn = prog
        results = launch(config, rt.cluster, lambda ctx, pc: bits(fn(ctx, pc)),
                         runtime=rt, materialize=materialize)
    else:
        results = rt.run(lambda ctx: bits(prog(ctx)), materialize=materialize,
                         seed=program.seed)
    run = Run(
        results, rt.max_time(), [c.time for c in rt.clocks],
        [c.breakdown() for c in rt.clocks], [s.breakdown() for s in rt.comm_streams],
        [rt.cluster.device(r).memory.peak for r in range(rt.world_size)],
        {key: {f: getattr(g.counters, f) for f in COUNTER_FIELDS}
         for key, g in rt._groups.items()},
        pool and (rt.buffer_pool.loans, rt.buffer_pool.reuses))
    run.stream_times = [s.time for s in rt.comm_streams]
    run.seqs = {key: dict(g._seq) for key, g in rt._groups.items()}
    run.path = rt.path, rt.reason
    if tracer is not None:
        run.spans, run.tables = timeline_spans(tracer), report_tables(tracer)
    if recorder is not None:
        run.trace = recorder.trace()
    return run


@functools.lru_cache(maxsize=None)
def plain(cell):
    """The cell's reference run: pooled, real mode, under a ``Tracer``."""
    return execute(cell, traced=True)


@functools.lru_cache(maxsize=None)
def captured(cell):
    return execute(cell, capture=True)


@functools.lru_cache(maxsize=None)
def specced(cell):
    return execute(cell, materialize=False)


# -- the relation table ----------------------------------------------------


def assert_same_run(run, ref):
    assert run.results == ref.results
    assert run.end_state() == ref.end_state()


def rel_capture(cell):
    assert_same_run(captured(cell), plain(cell))


def rel_replay(cell):
    ref, trace = plain(cell), captured(cell).trace
    rep = project(trace, mode="recorded")
    assert rep.step_time == ref.makespan
    assert rep.source_world == rep.target_world == cell.world
    assert [r.breakdown for r in rep.per_rank] == ref.clocks
    assert [r.stream for r in rep.per_rank] == ref.streams
    assert [r.peak_memory_bytes for r in rep.per_rank] == ref.peaks
    for key, counters in ref.counters.items():
        if key not in trace.groups:  # a group built but never priced
            assert counters["calls_total"] == 0
            continue
        gid = trace.groups.index(key)
        assert rep.group_multiplicity[gid] == 1
        proj = rep.group_counters[gid]
        assert {f: getattr(proj, f) for f in COUNTER_FIELDS} == counters, key
    tracer = Tracer()
    assert project(trace, mode="recorded", tracer=tracer).to_dict() == rep.to_dict()
    assert timeline_spans(tracer) == ref.spans
    assert report_tables(tracer) == ref.tables


def rel_pool(cell):
    assert_same_run(execute(cell, pool=False), plain(cell))


def rel_sanitize(cell):
    assert_same_run(execute(cell, sanitize=True), plain(cell))


def rel_overlap(cell):
    on, off = plain(cell.sibling(overlap=True)), plain(cell.sibling(overlap=False))
    assert on.results == off.results
    for key, counters in off.counters.items():
        for f in ("bytes_total", "by_op_bytes", "calls_total"):
            assert on.counters[key][f] == counters[f], (key, f)
    assert on.makespan <= off.makespan


def rel_spec(cell):
    spec, ref = specced(cell), plain(cell)
    assert spec.end_state() == ref.end_state()


def rel_classed(cell):
    classed, threaded = specced(cell), execute(cell, materialize=False, threaded=True)
    assert classed.path == CLASSED[cell.program]
    assert threaded.path == ("threaded", "forced")
    assert classed.results == threaded.results
    assert classed.end_state() == threaded.end_state()
    assert classed.stream_times == threaded.stream_times
    assert classed.seqs == threaded.seqs


def rel_auto(cell):
    auto, ring = plain(cell.sibling(algorithm="auto")), plain(cell.sibling(algorithm="ring"))
    assert auto.makespan <= ring.makespan


RELATIONS = [
    pytest.param(rel_capture, id="capture", marks=pytest.mark.projection),
    pytest.param(rel_replay, id="replay", marks=pytest.mark.projection),
    pytest.param(rel_pool, id="pool", marks=pytest.mark.perf),
    pytest.param(rel_sanitize, id="sanitize", marks=pytest.mark.perf),
    pytest.param(rel_overlap, id="overlap", marks=pytest.mark.overlap),
    pytest.param(rel_spec, id="spec"),
    pytest.param(rel_auto, id="auto"),
    pytest.param(rel_classed, id="classed"),
]


@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("relation", RELATIONS)
def test_relation(relation, program):
    for cell in cells(program):
        try:
            relation(cell)
        except AssertionError as err:
            raise AssertionError(f"{relation.__name__} fails on {cell}") from err


# -- the strict facts of single cells --------------------------------------


def _world(run):
    return run.counters[max(run.counters, key=len)]


@pytest.mark.overlap
def test_multi_bucket_ddp_overlap_is_strictly_faster():
    """Early buckets flush while later layers' backward still computes."""
    for cell in cells("ddp", overlap=True):
        on, off = plain(cell), plain(cell.sibling(overlap=False))
        assert on.makespan < off.makespan, cell
        assert _world(on)["overlapped_seconds_total"] > 0.0, cell
        assert _world(off)["overlapped_seconds_total"] == 0.0, cell


@pytest.mark.overlap
def test_zero_overlap_hides_traffic():
    for cell in cells("zero3", overlap=True):
        assert _world(plain(cell))["overlapped_seconds_total"] > 0.0, cell


@pytest.mark.perf
def test_pooled_runs_use_the_pool():
    """The flat DDP buckets restocked after step 1 are reused in step 2;
    the ZeRO chunks borrow from the pool."""
    for cell in cells("ddp"):
        loans, reuses = plain(cell).pool
        assert loans > 0 and reuses > 0, cell
    for cell in cells("zero3"):
        assert plain(cell).pool[0] > 0, cell
