"""Tests for the SPMD runtime: clocks, launching, failure propagation."""

import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import uniform_cluster
from repro.comm import Communicator
from repro.runtime import CollectiveTimeout, RemoteRankError, SimClock, SpmdRuntime
from repro.runtime.clock import StreamClock
from repro.runtime.spmd import current_rank_context, in_spmd
from repro.sanitize import CollectiveDesync


class TestSimClock:
    def test_advance(self):
        c = SimClock()
        c.advance(1.5)
        assert c.time == 1.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_sync_to_forward_only(self):
        c = SimClock()
        c.advance(2.0)
        c.sync_to(1.0)
        assert c.time == 2.0
        c.sync_to(3.0)
        assert c.time == 3.0

    def test_breakdown_categories(self):
        c = SimClock()
        c.advance(1.0, "compute")
        c.advance(0.5, "comm")
        c.sync_to(2.0, "wait")
        b = c.breakdown()
        assert b["compute"] == 1.0
        assert b["comm"] == 0.5
        assert b["wait"] == pytest.approx(0.5)

    def test_reset(self):
        c = SimClock()
        c.advance(1.0)
        c.reset()
        assert c.time == 0.0
        assert c.breakdown() == {}

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, -1e-300])
    def test_non_finite_or_negative_advance_rejected(self, dt):
        """A NaN clock would never ``sync_to`` again: every comparison
        with it is false."""
        c = SimClock()
        c.advance(1.0)
        with pytest.raises(ValueError):
            c.advance(dt)
        with pytest.raises(ValueError):
            c.advance_run([("a", "compute", dt, None)], 0)
        assert c.time == 1.0
        assert c.breakdown() == {"compute": 1.0}

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_sync_target_rejected(self, t):
        """NaN and ``+inf`` are refused, not ignored or reached; a target
        behind the clock stays a no-op."""
        c = SimClock()
        c.advance(1.0)
        with pytest.raises(ValueError):
            c.sync_to(t)
        c.sync_to(-math.inf)
        assert c.time == 1.0
        assert c.breakdown() == {"compute": 1.0}

    def test_nan_slowdown_factor_rejected(self):
        with pytest.raises(ValueError):
            SimClock().set_slowdown(math.nan)

    @pytest.mark.parametrize("t0, t1", [
        (0.0, math.nan), (math.nan, 1.0), (0.0, math.inf),
        (-math.inf, 0.0), (1.0, 0.5)])
    def test_stream_rejects_non_finite_or_backward_occupancy(self, t0, t1):
        s = StreamClock()
        with pytest.raises(ValueError):
            s.occupy(t0, t1)
        assert s.time == 0.0
        assert s.breakdown() == {"exposed": 0.0, "overlapped": 0.0}


_categories = st.sampled_from(["compute", "comm", "offload"])
_dts = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e-6, allow_nan=False))
_advances = st.lists(st.tuples(
    _categories, _dts, st.sampled_from([None, "fwd", "bwd"])), max_size=30)


def _windowed_clocks(windows):
    """Two identical clocks, each with the slowdown windows and a recording
    observer and capture."""
    out = []
    for _ in range(2):
        clock, calls = SimClock(), []
        for start, length, factor in windows:
            clock.set_slowdown(factor, start, start + length)
        clock.set_observer(lambda *a, calls=calls: calls.append(("obs",) + a))
        clock.set_capture(lambda *a, calls=calls: calls.append(("cap",) + a))
        out.append((clock, calls))
    return out


@settings(max_examples=200, deadline=None)
@given(
    advances=_advances,
    windows=st.lists(st.tuples(
        st.floats(0.0, 5.0), st.floats(0.0, 3.0),
        st.sampled_from([0.5, 2.0, 3.0])), max_size=3),
    scale=st.sampled_from([1.0, 1.5, 0.25]),
    lead=st.integers(0, 3),
    stop_at_label=st.booleans(),
)
def test_advance_run_is_a_loop_of_advance(advances, windows, scale, lead,
                                          stop_at_label):
    """``advance_run`` applies a run exactly as ``advance`` per event would:
    the same clock bits, breakdown, observer and capture calls, stopping at
    the first other event (or labelled advance, when asked)."""
    (run_clock, run_calls), (loop_clock, loop_calls) = \
        _windowed_clocks(windows)
    events = [("x",)] * lead + [("a",) + ev for ev in advances] + [("c", 0, 1)]
    stop = run_clock.advance_run(events, lead, scale, stop_at_label)
    pos = lead
    while events[pos][0] == "a" and not (
            stop_at_label and events[pos][3] is not None):
        dt = events[pos][2]
        loop_clock.advance(dt if scale == 1.0 else dt * scale, events[pos][1])
        pos += 1
    assert stop == pos
    assert run_clock.time == loop_clock.time
    assert run_clock.breakdown() == loop_clock.breakdown()
    assert run_calls == loop_calls


@settings(max_examples=50, deadline=None)
@given(head=_advances, bad=st.sampled_from([math.nan, math.inf, -1.0]),
       tail=_advances)
def test_advance_run_stops_at_a_bad_advance_like_the_loop(head, bad, tail):
    (run_clock, run_calls), (loop_clock, loop_calls) = \
        _windowed_clocks([(0.5, 1.0, 2.0)])
    events = [("a",) + ev for ev in head] + [("a", "compute", bad, None)] + \
        [("a",) + ev for ev in tail]
    with pytest.raises(ValueError):
        run_clock.advance_run(events, 0)
    with pytest.raises(ValueError):
        for ev in events:
            loop_clock.advance(ev[2], ev[1])
    assert run_clock.time == loop_clock.time
    assert run_clock.breakdown() == loop_clock.breakdown()
    assert run_calls == loop_calls


def _traced_runtimes(world, entries, traced):
    """Two identical runtimes whose clocks read ``entries`` (advanced as
    compute), each with its own ``Tracer`` when ``traced``."""
    from repro.cluster import uniform_cluster
    from repro.trace import Tracer

    out = []
    for _ in range(2):
        tracer = Tracer() if traced else None
        rt = SpmdRuntime(uniform_cluster(world), tracer=tracer)
        for clock, t in zip(rt.clocks, entries):
            clock.advance(t, "compute")
        out.append((rt, tracer))
    return out


def _clock_state(rt, tracer):
    return ([c.time for c in rt.clocks], [c.breakdown() for c in rt.clocks],
            [c.breakdown() for c in rt.comm_streams],
            [s.time for s in rt.comm_streams],
            None if tracer is None else tracer.spans())


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       entries=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6),
       traced=st.booleans())
def test_sync_all_is_a_loop_of_sync_to(data, entries, traced):
    """The member loop moves every clock exactly as a ``sync_to`` per
    member would: the same time, breakdown and observer spans — members
    already past ``t`` untouched, NaN and ``+inf`` refused at the first
    member, in any member order."""
    world = len(entries)
    ranks = data.draw(st.permutations(range(world)).flatmap(
        lambda p: st.integers(1, world).map(lambda k: p[:k])))
    t = data.draw(st.one_of(
        st.floats(0.0, 5.0), st.sampled_from(entries),
        st.sampled_from([math.nan, math.inf, -math.inf])))
    (one, one_tracer), (loop, loop_tracer) = _traced_runtimes(
        world, entries, traced)
    raised = []
    for fn in (lambda: SimClock.sync_all(one.clocks, ranks, t),
               lambda: [loop.clocks[g].sync_to(t, "comm") for g in ranks]):
        try:
            fn()
            raised.append(None)
        except ValueError as exc:
            raised.append(str(exc))
    assert raised[0] == raised[1]
    assert (raised[0] is not None) == (t != t or t == math.inf)
    assert _clock_state(one, one_tracer) == _clock_state(loop, loop_tracer)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), world=st.integers(1, 6),
       t0=st.one_of(st.floats(0.0, 4.0),
                    st.sampled_from([math.nan, -math.inf])),
       dt=st.one_of(st.floats(0.0, 2.0),
                    st.sampled_from([-0.5, math.nan, math.inf])))
def test_occupy_all_is_a_loop_of_occupy(data, world, t0, dt):
    ranks = data.draw(st.permutations(range(world)))
    (one, _), (loop, _) = _traced_runtimes(world, [0.0] * world, False)
    for rt in (one, loop):  # a head already past the interval on one stream
        rt.comm_streams[0].occupy(0.0, 3.0)
    raised = []
    for fn in (lambda: StreamClock.occupy_all(
                   one.comm_streams, ranks, t0, t0 + dt),
               lambda: [loop.comm_streams[g].occupy(t0, t0 + dt)
                        for g in ranks]):
        try:
            fn()
            raised.append(None)
        except ValueError as exc:
            raised.append(str(exc))
    assert raised[0] == raised[1]
    assert _clock_state(one, None) == _clock_state(loop, None)


class TestSpmdRuntime:
    def test_all_ranks_run(self, rt4):
        res = rt4.run(lambda ctx: ctx.rank * 10)
        assert res == [0, 10, 20, 30]

    def test_context_fields(self, rt4):
        def prog(ctx):
            assert in_spmd()
            assert current_rank_context() is ctx
            assert ctx.world_size == 4
            assert ctx.device.name == f"gpu{ctx.rank}"
            assert ctx.cpu.kind.value == "cpu"
            return True

        assert all(rt4.run(prog))

    def test_no_context_outside(self):
        assert not in_spmd()
        with pytest.raises(RuntimeError):
            current_rank_context()

    def test_failure_propagates(self, rt4):
        def prog(ctx):
            if ctx.rank == 1:
                raise ValueError("boom")
            from repro.comm import Communicator

            Communicator.world(ctx).barrier()

        with pytest.raises(RemoteRankError) as ei:
            rt4.run(prog)
        assert ei.value.rank == 1
        assert isinstance(ei.value.cause, ValueError)

    def test_rerun_after_failure(self, rt4):
        def bad(ctx):
            raise RuntimeError("x")

        with pytest.raises(RemoteRankError):
            rt4.run(bad)
        # runtime is reusable
        assert rt4.run(lambda ctx: ctx.rank) == [0, 1, 2, 3]

    def test_world_size_cap(self, cluster4):
        with pytest.raises(ValueError):
            SpmdRuntime(cluster4, world_size=8)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(world_size=0), "world_size"), (dict(world_size=-2), "world_size"),
    ])
    def test_bad_runtime_arguments_named(self, cluster4, kwargs, name):
        """An empty world would return ``[]`` as a run: it is refused at
        construction, by name."""
        with pytest.raises(ValueError, match=name):
            SpmdRuntime(cluster4, **kwargs)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    @pytest.mark.parametrize("materialize", [True, False])
    def test_bad_seed_refused_before_any_rank_runs(self, rt4, seed, materialize):
        ran = []
        with pytest.raises(ValueError, match="seed"):
            rt4.run(lambda ctx: ran.append(ctx), seed=seed, materialize=materialize)
        assert ran == []
        assert rt4.run(lambda ctx: ctx.seed, seed=2) == [200006 + r for r in range(4)]

    @pytest.mark.parametrize("materialize", [True, False])
    def test_rank_setup_failure_is_a_remote_rank_error(self, materialize):
        """Rank 1's GPU sits on a node with no host: building its context
        fails on its own thread, and the run raises that, typed."""
        cluster = uniform_cluster(4)
        cluster.gpus[1].node = 7
        with pytest.raises(RemoteRankError) as ei:
            SpmdRuntime(cluster).run(lambda ctx: ctx.world_size, materialize=materialize)
        assert ei.value.rank == 1
        assert isinstance(ei.value.cause, KeyError)

    def test_sub_world(self, cluster4):
        rt = SpmdRuntime(cluster4, world_size=2)
        assert rt.run(lambda ctx: ctx.world_size) == [2, 2]

    def test_seed_per_rank_distinct(self, rt4):
        res = rt4.run(lambda ctx: float(ctx.rng.random()))
        assert len(set(res)) == 4

    def test_seed_reproducible(self, cluster4):
        a = SpmdRuntime(cluster4).run(lambda ctx: float(ctx.rng.random()), seed=5)
        b = SpmdRuntime(cluster4).run(lambda ctx: float(ctx.rng.random()), seed=5)
        assert a == b

    def test_materialize_flag(self, rt4):
        res = rt4.run(lambda ctx: ctx.materialize, materialize=False)
        assert res == [False] * 4

    def test_clocks_reset_between_runs(self, rt4):
        def prog(ctx):
            ctx.clock.advance(1.0)
            return ctx.clock.time

        assert rt4.run(prog) == [1.0] * 4
        assert rt4.run(prog) == [1.0] * 4

    def test_max_time(self, rt4):
        def prog(ctx):
            ctx.clock.advance(float(ctx.rank))

        rt4.run(prog)
        assert rt4.max_time() == 3.0

    def test_group_idempotent(self, rt4):
        def prog(ctx):
            g1 = ctx.runtime.group([0, 1])
            g2 = ctx.runtime.group([0, 1])
            return id(g1) == id(g2)

        assert all(rt4.run(prog))


# -- deadlock: the run ends the moment every live rank is parked ------------


def _stuck(kind, op, steps, victim, k):
    """``steps`` world ``op`` calls, ``victim`` skipping call ``k``, making
    it twice, exiting before it or at the end receiving a message never
    sent; or at the end rank 0 waits in the world group, rank r in [r, 0]."""

    def prog(ctx):
        world, r, x = Communicator.world(ctx), ctx.rank, np.ones(12)
        for i in range(steps):
            mine = r == victim and i == k
            if mine and kind == "exit":
                return
            for _ in range({"skip": 0, "extra": 2}.get(kind, 1) if mine else 1):
                getattr(world, op)(x)
        if kind == "recv" and r == victim:
            world.recv(src=(victim + 1) % ctx.world_size, tag="never")
        if kind == "cycle":
            getattr(world if r == 0 else world.subgroup([r, 0]), op)(x)

    return prog


@settings(max_examples=30, deadline=None)
@given(data=st.data(), world=st.integers(2, 4), steps=st.integers(1, 3),
       kind=st.sampled_from(["skip", "extra", "exit", "recv", "cycle"]),
       op=st.sampled_from(["all_reduce", "all_gather", "reduce_scatter"]),
       sanitize=st.booleans())
def test_a_stuck_program_fails_at_once_and_alike(data, world, steps, kind, op,
                                                 sanitize):
    """Every live rank parked is a deadlock, found exactly: each run raises
    a typed error at once, and ten runs name the same rank, op and group —
    the lowest parked rank's ``CollectiveTimeout``, or the sanitizer's
    ``CollectiveDesync`` naming who waits there and for whom."""
    victim = data.draw(st.integers(0, world - 1), label="victim")
    k = data.draw(st.integers(0, steps - 1), label="k")
    every, peer = tuple(range(world)), (victim + 1) % world
    others = tuple(r for r in every if r != victim)
    rank, name, group, waiting, missing = {
        "recv": (victim, "recv", (peer, victim), (victim,), (peer,)),
        "cycle": (0, op, every, (0,), every[1:]),
        "extra": (victim, op, every, (victim,), others),
    }.get(kind, (others[0], op, every, others, (victim,)))
    rt = SpmdRuntime(uniform_cluster(world), sanitize=sanitize or None)
    for _ in range(10):
        t0 = time.monotonic()
        with pytest.raises(RemoteRankError) as ei:
            rt.run(_stuck(kind, op, steps, victim, k))
        assert time.monotonic() - t0 < 1.0
        cause = ei.value.cause
        if sanitize:
            assert type(cause) is CollectiveDesync
            assert (cause.op, cause.group_ranks, cause.waiting_ranks,
                    cause.missing_ranks) == (name, group, waiting, missing)
        else:
            assert type(cause) is CollectiveTimeout and cause.attempts == 0
            assert (ei.value.rank, cause.op, cause.ranks) == (rank, name, group)


def test_a_healthy_storm_is_never_called_deadlocked():
    """Parks, wake-ups and exits interleave every microsecond on more rank
    threads than cores: a waker takes each woken rank out of the parked set
    before anything else can read it, so no run meets the deadlock rule."""

    def prog(ctx):
        world, r = Communicator.world(ctx), ctx.rank
        for i in range(40):
            world.all_reduce(np.ones(2))
            world.sendrecv(np.ones(2), (r + 1) % 4, (r - 1) % 4, tag=i)
            world.subgroup([r - r % 2, r - r % 2 + 1]).iallreduce(np.ones(2)).wait()
        if r == 0:  # and exits, with rank 3 parked or not yet on its message
            world.send(np.ones(1), 3)
        return world.recv(src=0)[0] if r == 3 else r

    rt, interval = SpmdRuntime(uniform_cluster(4)), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = [rt.run(prog) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert results == [[0, 1, 2, 1.0]] * 3
    assert rt.parked == {} and rt.live == 0
