"""Pipeline parallelism: partitioning, the schedule order, schedule
parity, bubble timing."""

import re

import numpy as np
import pytest

from repro.autograd import ops
from repro.cluster import uniform_cluster
from repro.comm.payload import SpecArray
from repro.config import PIPELINE_SCHEDULES, Config
from repro.context import ParallelContext
from repro.nn import CrossEntropyLoss, Linear, Module, Sequential, TransformerLayer
from repro.parallel.pipeline import (
    GPipeSchedule,
    OneFOneBSchedule,
    partition_balanced,
    partition_uniform,
)
from repro.parallel.pipeline.schedule import bubble_fraction, pipeline_order
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor
from repro.trace import Tracer

from conftest import run_spmd

H, NH, B, S, C = 8, 2, 8, 4, 5


class TestPartition:
    def test_uniform_even(self):
        assert partition_uniform(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uniform_remainder_to_early_stages(self):
        assert partition_uniform(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_uniform_rejects_too_many_stages(self):
        with pytest.raises(ValueError):
            partition_uniform(2, 3)

    def test_balanced_uniform_costs(self):
        ranges = partition_balanced([1.0] * 8, 4)
        assert ranges == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_balanced_heavy_layer(self):
        # one huge layer should sit alone
        ranges = partition_balanced([1, 1, 1, 10, 1, 1], 3)
        loads = [sum([1, 1, 1, 10, 1, 1][s:e]) for s, e in ranges]
        assert max(loads) == 10

    def test_balanced_covers_all_layers(self):
        costs = [3, 1, 4, 1, 5, 9, 2, 6]
        ranges = partition_balanced(costs, 3)
        assert ranges[0][0] == 0 and ranges[-1][1] == len(costs)
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c

    def test_balanced_every_stage_nonempty(self):
        ranges = partition_balanced([10, 1, 1, 1], 4)
        assert all(e > s for s, e in ranges)
        assert len(ranges) == 4

    def test_balanced_optimality_simple(self):
        # [2,2,2,2] into 2 -> max load 4 (optimal)
        ranges = partition_balanced([2, 2, 2, 2], 2)
        loads = [sum([2, 2, 2, 2][s:e]) for s, e in ranges]
        assert max(loads) == 4


#: (stages, microbatches): fewer, as many and more microbatches than stages
ORDER_GRID = [(1, 1), (1, 3), (2, 1), (2, 4), (3, 2), (4, 4), (4, 8), (8, 3)]


def _unit_cost_walk(kind, stages, m):
    """Reference evaluation of a schedule, kept out of ``src/``: walk every
    stage's order with forward 1, backward 2 and free hops.  A step starts
    when its stage is free and its input is ready (the previous stage's
    forward, the next stage's backward of the same microbatch).  Returns
    ``(bubble, peak microbatches in flight on any stage)``."""
    orders = [pipeline_order(kind, s, stages, m) for s in range(stages)]
    done = [{} for _ in range(stages)]  # per stage: (step, mb) -> finish time
    clock, at = [0] * stages, [0] * stages
    ready = list(range(stages))
    while ready:
        s = ready.pop()
        while at[s] < len(orders[s]):
            step, mb = orders[s][at[s]]
            src = s - 1 if step == "F" else s + 1
            t_in = done[src].get((step, mb)) if 0 <= src < stages else 0
            if t_in is None:
                break  # woken again when the neighbour finishes it
            clock[s] = done[s][step, mb] = max(clock[s], t_in) + (1 if step == "F" else 2)
            at[s] += 1
            dst = s + 1 if step == "F" else s - 1
            if 0 <= dst < stages:
                ready.append(dst)
    assert at == [2 * m] * stages, "the orders deadlock"
    makespan = max(clock)
    peak = 0
    for order in orders:
        live = 0
        for step, _ in order:
            live += 1 if step == "F" else -1
            peak = max(peak, live)
    return (makespan - 3 * m) / makespan, peak


#: every p in 2..64 at m in {1, 2, p}, every m in 1..64 at p in 2..5, and the
#: far corners; the full 2..64 x 1..64 product walks 17 M steps (about 14 s)
WALK_GRID = sorted(
    {(p, m) for p in range(2, 65) for m in (1, 2, p) if m <= 64}
    | {(p, m) for p in range(2, 6) for m in range(1, 65)}
    | {(32, 64), (63, 64), (64, 63), (64, 64)}
)


class TestOrder:
    """``pipeline_order`` is the only place a schedule is written."""

    @pytest.mark.parametrize("kind", PIPELINE_SCHEDULES)
    @pytest.mark.parametrize("stages, m", ORDER_GRID)
    def test_every_microbatch_runs_forward_then_backward(self, kind, stages, m):
        for stage in range(stages):
            order = pipeline_order(kind, stage, stages, m)
            assert sorted(order) == sorted(
                [("F", mb) for mb in range(m)] + [("B", mb) for mb in range(m)])
            for mb in range(m):
                assert order.index(("F", mb)) < order.index(("B", mb))

    @pytest.mark.parametrize("stages, m", ORDER_GRID)
    def test_1f1b_holds_at_most_the_stages_left(self, stages, m):
        for stage in range(stages):
            live = peak = 0
            for step, _ in pipeline_order("1f1b", stage, stages, m):
                live += 1 if step == "F" else -1
                peak = max(peak, live)
            assert peak <= stages - stage

    def test_unknown_kind_names_the_choices(self):
        with pytest.raises(ValueError, match=re.escape(str(PIPELINE_SCHEDULES))):
            pipeline_order("zigzag", 0, 2, 4)

    @pytest.mark.parametrize("kind", PIPELINE_SCHEDULES)
    def test_unit_cost_walk_reproduces_the_scorer(self, kind):
        """The scorer's closed-form bubble and its in-flight term (read off
        stage 0's order) equal a walk of all stages' orders, bit for bit."""
        from repro.autopar.scoring import _CostCache

        terms = _CostCache(uniform_cluster(1))
        for p, m in WALK_GRID:
            assert _unit_cost_walk(kind, p, m) == (
                bubble_fraction(p, m), terms["live", kind, p, m]), (p, m)


def _layer_rng(i):
    return np.random.default_rng((99, i))


class _Tail(Module):
    def __init__(self):
        super().__init__()
        self.head = Linear(H, C, rng=_layer_rng(100))

    def forward(self, x):
        return self.head(x.mean(axis=1))


def _stack(idxs, with_tail):
    mods = [TransformerLayer(H, NH, mlp_ratio=2, rng=_layer_rng(i)) for i in idxs]
    return Sequential(mods + [_Tail()] if with_tail else mods)


@pytest.fixture(scope="module")
def serial_ref():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((B, S, H)).astype(np.float32)
    Y = rng.integers(0, C, B)
    model = _stack(range(4), with_tail=True)
    crit = CrossEntropyLoss()
    loss = crit(model(Tensor(X.copy())), Y)
    loss.backward()
    return {
        "X": X,
        "Y": Y,
        "loss": loss.item(),
        "w1_grad": model[0].mlp.dense_1.weight.grad.numpy().copy(),
        "head_grad": model[4].head.weight.grad.numpy().copy(),
    }


def _run_pipeline(sched_cls, ref, microbatches=4, stages=4, tracer=None):
    crit = CrossEntropyLoss()

    def prog(ctx):
        pc = ParallelContext(
            ctx,
            Config.from_dict(
                dict(parallel=dict(pipeline=stages), num_microbatches=microbatches)
            ),
        )
        s, e = partition_uniform(4, stages)[pc.pp_rank]
        stage = _stack(range(s, e), with_tail=pc.is_last_pipeline_stage())
        sched = sched_cls(pc, microbatches)
        loss = sched.run(
            stage,
            ref["X"].copy() if pc.is_first_pipeline_stage() else None,
            ref["Y"] if pc.is_last_pipeline_stage() else None,
            crit,
        )
        grads = {}
        if pc.pp_rank == 0:
            grads["w1"] = stage[0].mlp.dense_1.weight.grad.numpy()
        if pc.is_last_pipeline_stage():
            grads["head"] = stage[-1].head.weight.grad.numpy()
        return pc.pp_rank, loss, grads, ctx.clock.time

    return SpmdRuntime(uniform_cluster(stages), tracer=tracer).run(prog)


class TestSchedules:
    @pytest.mark.parametrize("sched_cls", [GPipeSchedule, OneFOneBSchedule])
    def test_loss_and_grad_parity(self, serial_ref, sched_cls):
        res = _run_pipeline(sched_cls, serial_ref)
        last = res[-1]
        assert last[1] == pytest.approx(serial_ref["loss"], abs=1e-5)
        np.testing.assert_allclose(res[0][2]["w1"], serial_ref["w1_grad"], atol=1e-5)
        np.testing.assert_allclose(
            last[2]["head"], serial_ref["head_grad"], atol=1e-5
        )

    @pytest.mark.parametrize("sched_cls", [GPipeSchedule, OneFOneBSchedule])
    def test_microbatch_count_invariance(self, serial_ref, sched_cls):
        """Loss equals the big-batch loss for any microbatch count."""
        for m in (1, 2, 8):
            res = _run_pipeline(sched_cls, serial_ref, microbatches=m)
            assert res[-1][1] == pytest.approx(serial_ref["loss"], abs=1e-5)

    def test_trainer_fit_drives_the_schedule(self, serial_ref):
        """``Engine.execute_schedule``: fit's loss is the hand-called schedule's; hooks step."""
        from repro.engine import initialize
        from repro.optim import SGD, LinearWarmupCosine
        from repro.trainer import LossLoggingHook, LRSchedulerHook, Trainer

        def prog(ctx):
            pc = ParallelContext(ctx, Config.from_dict(
                dict(parallel=dict(pipeline=2), num_microbatches=2)))
            s, e = partition_uniform(4, 2)[pc.pp_rank]
            stage = _stack(range(s, e), with_tail=pc.is_last_pipeline_stage())
            opt = SGD(stage.parameters(), lr=0.1)
            engine = initialize(stage, opt, CrossEntropyLoss(), pc=pc)
            trainer = Trainer(engine, hooks=[
                LossLoggingHook(every=1), LRSchedulerHook(LinearWarmupCosine(opt, 0.1, 0, 2))])
            batch = (serial_ref["X"].copy() if pc.pp_rank == 0 else None,
                     serial_ref["Y"] if pc.is_last_pipeline_stage() else None)
            return trainer.fit([batch], epochs=1).get("loss"), opt.defaults["lr"]

        by_hand = _run_pipeline(GPipeSchedule, serial_ref, microbatches=2, stages=2)
        (_, lr), (last_loss, _) = run_spmd(2, prog)
        assert last_loss == [by_hand[-1][1]]
        assert lr == pytest.approx(0.05)  # one cosine step of two

    def test_indivisible_microbatches_rejected(self, serial_ref):
        from repro.runtime import RemoteRankError

        with pytest.raises(RemoteRankError):
            _run_pipeline(GPipeSchedule, serial_ref, microbatches=3)

    @pytest.mark.parametrize("materialize", [True, False], ids=["materialized", "spec"])
    def test_indivisible_batch_rejected_in_both_modes(self, materialize):
        """Spec mode refuses the batch real mode refuses, instead of
        dropping the rows four microbatches of two leave over."""
        from repro.runtime import RemoteRankError

        def prog(ctx):
            pc = ParallelContext(ctx, Config.from_dict(
                dict(parallel=dict(pipeline=2), num_microbatches=4)))
            batch = np.zeros((10, H), np.float32) if materialize else SpecArray((10, H))
            GPipeSchedule(pc, 4).run(
                Linear(H, H), batch if pc.is_first_pipeline_stage() else None,
                None, lambda out, y: out.sum())

        with pytest.raises(RemoteRankError) as err:
            run_spmd(2, prog, materialize=materialize)
        assert str(err.value.__cause__) == "batch 10 not divisible into 4 microbatches"

    @pytest.mark.parametrize("sched_cls", [GPipeSchedule, OneFOneBSchedule])
    @pytest.mark.parametrize("stages, m", [(4, 4), (2, 8), (4, 2)])
    def test_executor_walks_the_order(self, serial_ref, sched_cls, stages, m):
        """Each rank's ``fwd/mbN`` / ``bwd/mbN`` spans are its stage's order."""
        tracer = Tracer()
        _run_pipeline(sched_cls, serial_ref, microbatches=m, stages=stages, tracer=tracer)
        for stage in range(stages):
            ran = [s.name for s in tracer.spans(cat="pipeline") if s.rank == stage]
            assert ran == [f"{'fwd' if step == 'F' else 'bwd'}/mb{mb}" for step, mb
                           in pipeline_order(sched_cls.kind, stage, stages, m)]

    def test_bubble_grows_with_stages(self, serial_ref):
        """More stages with the same microbatches -> later stages start
        later (the GPipe bubble)."""
        res = _run_pipeline(GPipeSchedule, serial_ref, microbatches=2, stages=4)
        times = [r[3] for r in res]
        # stage 0 finishes its role earlier than the pipeline makespan
        assert max(times) > 0

    def test_more_microbatches_improve_utilization(self):
        """Bubble fraction (p-1)/(m+p-1) shrinks with m: at compute-bound
        scale (spec mode, realistic shapes) m=8 beats m=1 on 4 stages."""
        from repro.comm.payload import SpecArray

        def makespan(m):
            def prog(ctx):
                pc = ParallelContext(
                    ctx,
                    Config.from_dict(
                        dict(parallel=dict(pipeline=4), num_microbatches=m)
                    ),
                )

                class BigStage(Module):
                    def __init__(self):
                        super().__init__()
                        self.lin = Linear(512, 512)

                    def forward(self, x):
                        return ops.gelu(self.lin(x))

                stage = BigStage()
                sched = GPipeSchedule(pc, m)
                out_grads = sched.run(
                    stage,
                    SpecArray((64, 128, 512)) if pc.is_first_pipeline_stage() else None,
                    None,
                    # last stage: sum as a pseudo-loss
                    (lambda out, y: out.sum()) if pc.is_last_pipeline_stage() else None,
                )
                return ctx.clock.time

            return max(run_spmd(4, prog, materialize=False))

        assert makespan(8) < makespan(1)

    def test_1f1b_lower_peak_memory_than_gpipe(self):
        """1F1B holds at most ~p microbatches in flight; GPipe holds m."""

        def peak(sched_cls):
            from repro.comm.payload import SpecArray

            def prog(ctx):
                pc = ParallelContext(
                    ctx,
                    Config.from_dict(
                        dict(parallel=dict(pipeline=2), num_microbatches=8)
                    ),
                )
                stage = _stack(
                    range(2) if pc.pp_rank == 0 else range(2, 4),
                    with_tail=pc.is_last_pipeline_stage(),
                )
                sched = sched_cls(pc, 8)
                crit = CrossEntropyLoss()
                sched.run(
                    stage,
                    SpecArray((16, S, H)) if pc.pp_rank == 0 else None,
                    SpecArray((16,), "int64") if pc.is_last_pipeline_stage() else None,
                    crit,
                )
                return ctx.device.memory.peak

            return run_spmd(2, prog, materialize=False)[0]

        assert peak(OneFOneBSchedule) < peak(GPipeSchedule)
