"""One program for a symmetric world (DESIGN §4ab).

A spec run with no observer and no fault plan, on ranks whose devices agree,
starts rank 0 alone as every rank's representative.  Its world-group rounds
close on its arrival; at the end every other rank copies it, or, from the
first point where the ranks could differ (a *trigger*), the others start
from the beginning, claim the rounds closed ahead and run live.  Either
way the run ends as the threaded run does: that is the ``classed ==
threaded`` relation, checked here on generated programs and in
``test_conformance.py`` on the oracle's programs.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import system_i, system_ii, system_iv, uniform_cluster
from repro.cluster.device import DeviceOutOfMemoryError
from repro.comm import Communicator, SpecArray
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.project import CaptureRecorder
from repro.runtime import CollectiveTimeout, RankFailure, RemoteRankError, SpmdRuntime
from repro.sanitize import CollectiveMismatch
from repro.tensor import Tensor

COUNTER_FIELDS = (
    "bytes_total", "elements_total", "calls_total", "retries_total", "retry_bytes_total",
    "by_op_bytes", "by_op_elements", "by_op_calls", "by_op_retries", "by_algorithm_bytes",
    "by_algorithm_calls", "exposed_seconds_total", "overlapped_seconds_total")


def end_state(rt):
    """Everything a run leaves on its runtime that ``classed == threaded``
    compares: clocks, streams, pools, counters, sequence numbers, rounds."""
    cluster = rt.cluster
    return dict(
        clocks=[(c.time, c.breakdown()) for c in rt.clocks],
        streams=[(s.time, s.breakdown()) for s in rt.comm_streams],
        pools=[(cluster.device(r).memory.peak, cluster.device(r).memory.breakdown())
               for r in range(rt.world_size)],
        counters={key: {f: getattr(g.counters, f) for f in COUNTER_FIELDS}
                  for key, g in rt._groups.items()},
        seqs={key: dict(g._seq) for key, g in rt._groups.items()},
        rounds={key: sorted(g._rounds) for key, g in rt._groups.items()},
    )


def assert_clean(rt):
    """What a failed run must leave: no rank thread, no scratch loan, every
    pool's bytes back, every round table empty."""
    assert not [t for t in threading.enumerate() if t.name.startswith("spmd-rank-")]
    rt.buffer_pool.check_leaks()
    for dev in rt.cluster.gpus + rt.cluster.cpus:
        assert dev.memory.allocated == 0, dev.name
        assert not any(dev.memory.breakdown().values()), dev.name
    assert all(g._rounds == {} for g in rt._groups.values())


def run_both(make_rt, prog, **kwargs):
    """``prog`` as the runtime chooses, then forced threaded on a fresh
    runtime: both runtimes and both outcomes (results or the error)."""
    out = []
    for represent in (True, False):
        rt = make_rt()
        rt._represent = represent
        try:
            out.append((rt, rt.run(prog, materialize=False, **kwargs)))
        except RemoteRankError as err:
            out.append((rt, err))
    return out


def spec(n=1024):
    return SpecArray((n,), "float32")


# -- the path a run takes --------------------------------------------------


def symmetric(ctx):
    """A program every rank runs alike, reading no rank."""
    world = Communicator.world(ctx)
    solo = ParallelContext(ctx, Config.from_dict({})).comm(ParallelMode.TENSOR)
    x = Tensor(SpecArray((64, 64), "float32"))
    y = x @ x
    world.all_reduce(y.payload)
    handle = world.iall_gather(spec())
    solo.all_reduce(spec())
    world.reduce_scatter(spec())
    handle.wait()
    world.barrier()
    return ctx.clock.time


class TestPath:
    @pytest.mark.parametrize("make, reason", [
        (lambda: SpmdRuntime(uniform_cluster(1)), "one rank"),
        (lambda: SpmdRuntime(uniform_cluster(4), fault_plan=_plan()), "fault injector"),
        (lambda: SpmdRuntime(uniform_cluster(4), tracer=_tracer()), "tracer"),
        (lambda: SpmdRuntime(uniform_cluster(4), sanitize=True), "sanitizer"),
    ])
    def test_what_keeps_a_run_threaded(self, make, reason):
        rt = make()
        rt.run(symmetric, materialize=False)
        assert (rt.path, rt.reason) == ("threaded", reason)

    def test_a_capture_runs_represented(self):
        rt = SpmdRuntime(uniform_cluster(4), capture=CaptureRecorder())
        rt.run(symmetric, materialize=False)
        assert (rt.path, rt.reason) == ("representative", None)

    def test_a_drive_after_a_represented_run_is_captured_as_driven(self):
        rec = CaptureRecorder()
        rt = SpmdRuntime(uniform_cluster(4), capture=rec)
        rt.run(symmetric, materialize=False)
        rt.drive(lambda: rt.clocks[1].advance(1.0, "compute"))
        assert [len(stream) for stream in rec.trace().streams] == [0, 1, 0, 0]

    def test_materialized_and_unequal_devices_stay_threaded(self):
        rt = SpmdRuntime(uniform_cluster(4))
        rt.run(symmetric)
        assert (rt.path, rt.reason) == ("threaded", "materialized")
        held = Tensor(spec(), device=rt.cluster.device(2))
        rt.run(symmetric, materialize=False)
        assert (rt.path, rt.reason) == ("threaded", "unequal devices")
        del held
        rt.run(symmetric, materialize=False)
        assert rt.path == "threaded"  # rank 2's pool peak still differs
        rt.cluster.reset()
        rt.run(symmetric, materialize=False)
        assert rt.path == "representative"

    def test_copied_identity_reads_after_the_run(self):
        kept = []

        def prog(ctx):
            kept.append(ctx)
            Communicator.world(ctx).barrier()

        rt = SpmdRuntime(uniform_cluster(4))
        rt.run(prog, materialize=False, seed=3)
        assert rt.path == "representative"
        assert (kept[0].rank, kept[0].seed) == (0, 300009)

    def test_constant_coordinates_are_no_trigger(self):
        def prog(ctx):
            pc = ParallelContext(ctx, Config.from_dict({}))
            return pc.tp_rank, pc.pp_rank, pc.is_first_pipeline_stage(), \
                pc.comm(ParallelMode.TENSOR).rank, pc.comm(ParallelMode.TENSOR).size

        rt = SpmdRuntime(uniform_cluster(4))
        assert rt.run(prog, materialize=False) == [(0, 0, True, 0, 1)] * 4
        assert rt.path == "representative"


def _plan():
    from repro.faults import FaultPlan

    return FaultPlan(0)


def _tracer():
    from repro.trace import Tracer

    return Tracer()


# -- triggers ---------------------------------------------------------------

#: trigger -> (what the program does there, the reason the runtime records;
#: ``{world}`` is the world group's ranks)
TRIGGERS = {
    "ctx.rank": (lambda ctx, w, s, keep: ctx.rank, "read of ctx.rank"),
    "ctx.seed": (lambda ctx, w, s, keep: ctx.seed, "read of ctx.seed"),
    "ctx.rng": (lambda ctx, w, s, keep: ctx.rng, "read of ctx.rng"),
    "comm.rank": (lambda ctx, w, s, keep: w.rank, "read of comm.rank"),
    "comm.global_rank": (lambda ctx, w, s, keep: w.global_rank, "read of comm.global_rank"),
    "pc.rank": (lambda ctx, w, s, keep: ctx.parallel_context.rank, "read of pc.rank"),
    "pc.dp_rank": (lambda ctx, w, s, keep: ctx.parallel_context.dp_rank, "read of pc.dp_rank"),
    "group": (lambda ctx, w, s, keep: ctx.runtime.group((1,)), "group (1,)"),
    "subgroup": (lambda ctx, w, s, keep: w.subgroup([0]), "group (0,)"),
    "solo.global_rank": (lambda ctx, w, s, keep: s.global_rank, "read of comm.global_rank"),
    "broadcast": (lambda ctx, w, s, keep: w.broadcast(spec(), root=0),
                  "broadcast on group {world}"),
    "reduce": (lambda ctx, w, s, keep: keep.append(w.reduce(spec(), root=0) is None),
               "reduce on group {world}"),
    "all_to_all": (lambda ctx, w, s, keep: w.all_to_all([spec(256)] * w.size),
                   "all_to_all on group {world}"),
    "send": (lambda ctx, w, s, keep: s.sendrecv(spec(), 0, 0), "send"),
    "raise": (lambda ctx, w, s, keep: _raise(), "raised ValueError"),
    "result": (lambda ctx, w, s, keep: keep.append("list"), "result of type list"),
    "pool": (lambda ctx, w, s, keep: keep.append(Tensor(spec())), "pool bytes held"),
    "host": (lambda ctx, w, s, keep: Tensor(spec(), device=ctx.cpu), "host pool used"),
}


def _raise():
    raise ValueError("boom")


#: the triggers after which some rank raises (``subgroup``: rank 0's
#: singleton, which every other rank is no member of)
RAISES = {"raise": ValueError, "subgroup": ValueError}


def reason_of(trigger, world):
    return TRIGGERS[trigger][1].format(world=tuple(range(world)))


#: the steps a generated program is made of; none can tell the ranks apart
STEPS = ("compute", "hold", "all_reduce", "all_gather", "reduce_scatter", "barrier",
         "iall_reduce", "iall_gather", "ireduce_scatter", "wait", "solo", "isolo")


def generated(steps, trigger, at, outlive):
    """A rank program of ``steps`` (each a (kind, size) pair) with
    ``trigger`` (a :data:`TRIGGERS` key, or None) before step ``at``.
    ``outlive`` keeps what the ``pool`` trigger holds past the run."""

    def prog(ctx):
        world = Communicator.world(ctx)
        pc = ParallelContext(ctx, Config.from_dict({}))
        solo = pc.comm(ParallelMode.TENSOR)
        keep, held, pending = [], [], []
        for i, (kind, n) in enumerate(steps):
            if i == at and trigger is not None:
                TRIGGERS[trigger][0](ctx, world, solo, keep)
            x = spec(n * world.size)
            if kind == "compute":
                a = Tensor(SpecArray((n, 16), "float32"))
                (a @ Tensor(SpecArray((16, 16), "float32"))).sum()
            elif kind == "hold":
                held.append(Tensor(x))
            elif kind == "all_reduce":
                world.all_reduce(x)
            elif kind == "all_gather":
                world.all_gather(x)
            elif kind == "reduce_scatter":
                world.reduce_scatter(x)
            elif kind == "barrier":
                world.barrier()
            elif kind == "iall_reduce":
                pending.append(world.iallreduce(x))
            elif kind == "iall_gather":
                pending.append(world.iall_gather(x))
            elif kind == "ireduce_scatter":
                pending.append(world.ireduce_scatter(x))
            elif kind == "wait":
                for handle in pending:
                    handle.wait()
                pending.clear()
            elif kind == "solo":
                solo.all_reduce(x)
            elif kind == "isolo":
                solo.iallreduce(x).wait()
        for handle in pending:
            handle.wait()
        if at >= len(steps) and trigger is not None:
            TRIGGERS[trigger][0](ctx, world, solo, keep)
        outlive.extend(t for t in keep if isinstance(t, Tensor))
        if "list" in keep:
            return [ctx.clock.time]
        return tuple(k for k in keep if type(k) is bool), ctx.clock.time

    return prog


@pytest.mark.parametrize("trigger", [None, *TRIGGERS])
@settings(max_examples=5, deadline=None, derandomize=True)
@given(
    steps=st.lists(st.tuples(st.sampled_from(STEPS), st.sampled_from((1, 64, 4096))),
                   min_size=1, max_size=10),
    at=st.integers(0, 10),
    world=st.sampled_from((2, 4)),
    overlap=st.booleans(),
)
def test_classed_equals_threaded(steps, trigger, at, world, overlap):
    """A generated program that never reads its rank, with no trigger or
    one at a random point, ends the same run on the same runtime whether
    rank 0 ran alone first or every rank had its own thread."""
    outlive = []
    prog = generated(steps, trigger, at, outlive)
    rt = SpmdRuntime(uniform_cluster(world), comm_overlap=overlap)
    runs = []
    for represent in (True, False):
        rt._represent = represent
        try:
            out = rt.run(prog, materialize=False)
        except RemoteRankError as err:
            out = type(err.cause)  # which rank raised first is the host's choice
            assert_clean(rt)
        outlive.clear()
        runs.append((out, rt.path, rt.reason, end_state(rt)))
        rt.cluster.reset()
        for g in rt._groups.values():
            g.counters.reset()
    (res, path, reason, state), (ref, _, forced, ref_state) = runs
    assert res == ref
    if trigger not in RAISES:
        assert state == ref_state
    assert forced == "forced"
    if trigger is None:
        assert (path, reason) == ("representative", None)
    else:
        assert (path, reason) == ("caught_up", reason_of(trigger, world))


# -- capture: a represented run records the threaded run's trace ----------


def captured(make_rt, prog, represent):
    """``prog``'s path and :class:`OpTrace`, each group id replaced by the
    group's ranks (ids follow the order groups are first met)."""
    rt = make_rt()
    rt._represent = represent
    rec = CaptureRecorder().install(rt)
    rt.run(prog, materialize=False)
    trace = rec.trace()
    ranks = trace.groups
    named = [[ev if ev[0] in ("a", "psw") else (ev[0], ranks[ev[1]], *ev[2:])
              for ev in stream] for stream in trace.streams]
    return (rt.path, rt.reason), dict(
        streams=named,
        rounds={(ranks[gid], seq): facts for (gid, seq), facts in trace.rounds.items()},
        peak_memory=trace.peak_memory, max_time=trace.max_time)


def claimed_late(ctx):
    """A blocking and a nonblocking world round closed ahead, then a
    trigger: every other rank claims both late."""
    world = Communicator.world(ctx)
    world.all_reduce(spec())
    handle = world.iall_gather(spec())
    ctx.clock.advance(1e-3 * (ctx.rank + 1), "compute")
    handle.wait()
    world.barrier()
    return ctx.clock.time


def solo_rounds(ctx):
    """A blocking and a nonblocking collective on the rank's own singleton
    group: the first is priced inline, the second meets a round."""
    solo = ParallelContext(ctx, Config.from_dict({})).comm(ParallelMode.TENSOR)
    solo.all_reduce(spec())
    solo.iallreduce(spec(64)).wait()
    Communicator.world(ctx).barrier()
    return ctx.clock.time


def _probes():
    """Skeleton probes of every 97th candidate of the three bench compiles
    that has one, at the compiler's probe scale: the first of each is
    data-parallel only."""
    from dataclasses import replace

    from repro.autopar.compiler import probe_scale
    from repro.autopar.probe import build_probe
    from repro.autopar.search import Workload, enumerate_candidates

    gpt = Workload(n_layers=16, hidden=3072, n_heads=48, seq_len=196)
    for make, world, batch in ((system_i, 8, 256), (system_ii, 8, 256),
                               (system_iv, 64, 512)):
        for cand in list(enumerate_candidates(gpt, batch, world))[::97]:
            scale = probe_scale(cand, 16)
            if scale is None:  # one replica exceeds the probe budget
                continue
            probe = replace(cand, data=scale[0])
            _, fn = build_probe(gpt, probe, batch * scale[0] // cand.data, 0.1)
            yield (lambda make=make, probe=probe: SpmdRuntime(
                make(), probe.world, comm_algorithm=probe.algorithm)), fn


def test_represented_capture_equals_threaded():
    """A captured spec run that starts rank 0 alone records the threaded
    run's trace: streams, round facts, peaks and makespan.  The symmetric
    program is copied, with its collective on rank 0's own singleton moved
    onto each rank's; ``claimed_late`` catches up after two rounds closed
    ahead; the probes take both paths."""
    programs = [(lambda: SpmdRuntime(uniform_cluster(4)), symmetric),
                (lambda: SpmdRuntime(uniform_cluster(4)), solo_rounds),
                (lambda: SpmdRuntime(system_ii(), 4), claimed_late), *_probes()]
    paths = []
    for make_rt, prog in programs:
        (path, reason), trace = captured(make_rt, prog, True)
        forced, ref = captured(make_rt, prog, False)
        assert forced == ("threaded", "forced")
        assert trace == ref, (path, reason)
        paths.append(path)
    assert paths[:3] == ["representative", "representative", "caught_up"]
    assert {"representative", "caught_up"} <= set(paths[3:])


@pytest.mark.parametrize("trigger", [None, *(t for t in TRIGGERS if t not in RAISES)])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(
    steps=st.lists(st.tuples(st.sampled_from(STEPS), st.sampled_from((1, 64, 4096))),
                   min_size=1, max_size=10),
    at=st.integers(0, 10),
    world=st.sampled_from((2, 4)),
)
def test_generated_capture_equals_threaded(steps, trigger, at, world):
    """Every generated program, copied or caught up, is captured as its
    threaded run is."""
    outlive = []
    prog = generated(steps, trigger, at, outlive)
    (path, _), trace = captured(lambda: SpmdRuntime(uniform_cluster(world)), prog, True)
    outlive.clear()
    _, ref = captured(lambda: SpmdRuntime(uniform_cluster(world)), prog, False)
    assert trace == ref, path
    assert path == ("representative" if trigger is None else "caught_up")


# -- failures: the run ends typed, with everything released (ROADMAP 6) -----


def failing(kind):
    """Every rank holds device bytes and meets one world round; then rank 1
    fails with ``kind`` (reading its rank is the trigger)."""

    def prog(ctx):
        world = Communicator.world(ctx)
        x = Tensor(SpecArray((1 << 18,), "float32"))
        world.all_reduce(x.payload)
        if ctx.rank == 1:
            if kind is RankFailure:
                raise RankFailure(1, sim_time=ctx.clock.time)
            if kind is CollectiveMismatch:
                raise CollectiveMismatch(world.group.ranks, 1, {"barrier": [0, 2, 3],
                                                                "skipped": [1]})
            if kind is DeviceOutOfMemoryError:
                Tensor(SpecArray((ctx.device.memory.free // 4 + 1,), "float32"))
            return None  # CollectiveTimeout: the others wait for rank 1
        world.barrier()

    return prog


@pytest.mark.parametrize("kind", [RankFailure, CollectiveTimeout, DeviceOutOfMemoryError,
                                  CollectiveMismatch])
def test_failure_releases_everything(kind):
    runs = run_both(lambda: SpmdRuntime(system_ii(), 4), failing(kind))
    assert [(rt.path, rt.reason) for rt, _ in runs] == [
        ("caught_up", "read of ctx.rank"), ("threaded", "forced")]
    for rt, err in runs:
        assert isinstance(err, RemoteRankError)
        assert type(err.cause) is kind
        assert_clean(rt)
