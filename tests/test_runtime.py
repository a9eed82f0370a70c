"""Tests for the SPMD runtime: clocks, launching, failure propagation."""

import numpy as np
import pytest

from repro.runtime import RemoteRankError, SimClock, SpmdRuntime
from repro.runtime.spmd import current_rank_context, in_spmd


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
