"""Differential parity for the projection execution mode (ISSUE 6).

``repro.project`` splits *what ops happen per rank* from *who executes
them*: a capture records each rank's op stream during a real threaded SPMD
run, and a single-threaded replay re-executes the stream on fresh clocks.
The fidelity contract is exactness, not approximation: with recorded
pricing, the replay's step time, per-rank clock/stream breakdowns,
per-group counters and — replayed under a ``Tracer`` — its collective /
comm-stream / overlap / p2p spans must equal the threaded run's with
``==``, for every cell of the parallelism grid (DP / ZeRO / 1D-TP /
pipeline × overlap off/on × ring/tree/hierarchical) at world sizes 2–16,
the comm golden's storm and the plan golden's hybrid GPT step.  It holds by
construction: both run ``repro.comm.timeline``'s rules, and the sums that
cross threads are correctly rounded over their terms (DESIGN §4q).

Also here: model-mode repricing identity (a ``Fabric.from_cluster`` of the
captured cluster reproduces the captured costs), scale-out behaviour, and
hypothesis properties — projection determinism, step time monotone in
fabric bandwidth, and projected all-reduce volume matching the Table-1
``2(p-1)·S_X`` closed form at every projected scale.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytic.commvolume import comm_volume_1d
from repro.autograd import ops
from repro.cluster import system_ii, uniform_cluster
from repro.comm import Communicator, SpecArray
from repro.comm.cost import CostModel
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.nn import CrossEntropyLoss, FeedForward, Linear, Module, Sequential
from repro.parallel.data import DistributedDataParallel, sync_gradients
from repro.parallel.pipeline import (
    GPipeSchedule,
    OneFOneBSchedule,
    partition_uniform,
)
from repro.parallel.tensor1d import Mode1D
from repro.analytic.memory_model import project_peak_memory
from repro.project import (
    CaptureRecorder,
    Fabric,
    ProjectedCostModel,
    ReplayStall,
    ScaleAxis,
    ScalePlan,
    capture_run,
    derive_axis_groups,
    hybrid_plan,
    price_plan,
    project,
)
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor
from repro.trace import TraceReport, Tracer
from repro.zero import ZeroOffloadEngine
from repro.zero.policies import NoOffloadPolicy

pytestmark = pytest.mark.projection

H, C, B = 16, 4, 8

_COUNTER_FIELDS = (
    "bytes_total", "elements_total", "calls_total",
    "retries_total", "retry_bytes_total",
    "by_op_bytes", "by_op_elements", "by_op_calls", "by_op_retries",
    "by_algorithm_bytes", "by_algorithm_calls",
    "exposed_seconds_total", "overlapped_seconds_total",
)


def _pc(ctx):
    return ParallelContext(ctx, Config.from_dict({}))


#: the span categories the timeline rules emit (everything else in a traced
#: run is a clock span or a program annotation)
_TIMELINE_CATS = ("collective", "comm_stream", "overlap", "p2p")


def _timeline_spans(tracer):
    """Sorted multiset: a threaded run appends in its host interleaving."""
    return sorted(
        (s.rank, s.cat, s.name, s.t0, s.t1, repr(sorted(s.args.items())))
        for s in tracer.spans() if s.cat in _TIMELINE_CATS)


def _assert_parity(rt, trace, rep):
    """The fidelity contract: replayed end-state == threaded end-state, and
    a traced replay's timeline == the (traced) threaded run's."""
    assert rep.step_time == rt.max_time()
    assert rep.source_world == rep.target_world == rt.world_size
    for r in range(rt.world_size):
        assert rep.per_rank[r].breakdown == rt.clocks[r].breakdown(), r
        assert rep.per_rank[r].stream == rt.comm_streams[r].breakdown(), r
        assert rep.per_rank[r].peak_memory_bytes == (
            rt.cluster.device(r).memory.peak
        ), r
    for key, group in rt._groups.items():
        if key not in trace.groups:
            # group object created but never used in a priced op
            assert group.counters.calls_total == 0
            continue
        gid = trace.groups.index(key)
        real, proj = group.counters, rep.group_counters[gid]
        assert rep.group_multiplicity[gid] == 1
        for f in _COUNTER_FIELDS:
            assert getattr(proj, f) == getattr(real, f), (key, f)

    tracer = Tracer()
    assert project(trace, mode="recorded", tracer=tracer).to_dict() == (
        rep.to_dict())
    assert _timeline_spans(tracer) == _timeline_spans(rt.tracer)
    real, proj = (TraceReport.from_tracer(t) for t in (rt.tracer, tracer))
    assert proj.collectives == real.collectives
    for table in ("stream_seconds", "exposed_comm", "overlapped_comm"):
        assert getattr(proj, table) == getattr(real, table), table


def _capture_pair(mk_cluster, world, prog, *, overlap=False, algorithm="ring",
                  materialize=True, seed=0):
    """Run ``prog`` twice — captured, then plain threaded under a
    ``Tracer`` — each on a fresh cluster from ``mk_cluster`` (a shared
    cluster would let the first run's tensor finalizers free into the second
    run's memory pools).  Returns ``(trace, plain runtime, captured results,
    plain results)``."""
    res_cap, trace = capture_run(
        mk_cluster(), prog, world_size=world, comm_overlap=overlap,
        comm_algorithm=algorithm, materialize=materialize, seed=seed,
    )
    rt = SpmdRuntime(
        mk_cluster(), world, comm_overlap=overlap, comm_algorithm=algorithm,
        tracer=Tracer(),
    )
    res_real = rt.run(prog, materialize=materialize, seed=seed)
    return trace, rt, res_cap, res_real


# -- training harnesses (one per parallelism mode) -------------------------


class _MLP(Module):
    def __init__(self):
        super().__init__()
        self.l1 = Linear(H, 32, rng=np.random.default_rng(11))
        self.l2 = Linear(32, 32, rng=np.random.default_rng(12))
        self.l3 = Linear(32, C, rng=np.random.default_rng(13))

    def forward(self, x):
        return self.l3(ops.gelu(self.l2(ops.gelu(self.l1(x)))))


def _batch(step):
    rng = np.random.default_rng((7, step))
    X = rng.standard_normal((2 * B, H)).astype(np.float32)
    Y = rng.integers(0, C, 2 * B)
    return X, Y


def _ddp_prog(overlap, steps=2):
    crit = CrossEntropyLoss()

    def prog(ctx):
        pc = _pc(ctx)
        model = _MLP()
        ddp = DistributedDataParallel(model, pc, bucket_mb=0.002,
                                      overlap=overlap)
        losses = []
        for s in range(steps):
            X, Y = _batch(s)
            n = X.shape[0] // pc.data_size
            xl = X[ctx.rank * n : (ctx.rank + 1) * n]
            yl = Y[ctx.rank * n : (ctx.rank + 1) * n]
            loss = crit(ddp(Tensor(xl.copy())), yl)
            loss.backward()
            ddp.sync()
            for p in model.parameters():
                p.payload[...] = p.payload - 0.05 * p.grad.payload
                p.grad = None
            losses.append(loss.item())
        return losses

    return prog


def _zero_prog(overlap, world, steps=2):
    crit = CrossEntropyLoss()

    def prog(ctx):
        comm = Communicator.world(ctx)

        class Block(Module):
            def __init__(self, seed, out=H):
                super().__init__()
                self.lin = Linear(H, out, rng=np.random.default_rng(seed))

            def forward(self, x):
                y = self.lin(x)
                return ops.gelu(y) if self.lin.out_features == H else y

        blocks = [Block(21), Block(22), Block(23, out=C)]
        pol = NoOffloadPolicy(ctx.device, ctx.cpu, CostModel(ctx.cluster),
                              ctx.rank)
        eng = ZeroOffloadEngine(
            ctx, blocks, comm, pol, criterion=crit,
            chunk_mb=0.001, lr=1e-2, param_dtype="float32", overlap=overlap,
        )
        losses = []
        for s in range(steps):
            X, Y = _batch(s)
            n = X.shape[0] // world
            losses.append(
                eng.train_step(X[ctx.rank * n : (ctx.rank + 1) * n],
                               Y[ctx.rank * n : (ctx.rank + 1) * n])
            )
        eng.gather_parameters()
        return losses

    return prog


def _pipeline_prog(sched_cls, stages, microbatches=4):
    crit = CrossEntropyLoss()
    X, Y = _batch(0)

    class Stage(Module):
        def __init__(self, idxs, with_tail):
            super().__init__()
            self.layers = [Linear(H, H, rng=np.random.default_rng((31, i)))
                           for i in idxs]
            for i, l in enumerate(self.layers):
                setattr(self, f"lin{i}", l)
            self.head = (
                Linear(H, C, rng=np.random.default_rng(35))
                if with_tail else None
            )

        def forward(self, x):
            for l in self.layers:
                x = ops.gelu(l(x))
            return self.head(x) if self.head is not None else x

    def prog(ctx):
        pc = ParallelContext(
            ctx,
            Config.from_dict(
                dict(parallel=dict(pipeline=stages),
                     num_microbatches=microbatches)
            ),
        )
        s, e = partition_uniform(4, stages)[pc.pp_rank]
        stage = Stage(range(s, e), with_tail=pc.is_last_pipeline_stage())
        sched = sched_cls(pc, microbatches)
        loss = sched.run(
            stage,
            X.copy() if pc.is_first_pipeline_stage() else None,
            Y if pc.is_last_pipeline_stage() else None,
            crit,
        )
        return loss

    return prog


def _tp1d_prog(size):
    x_g = np.random.default_rng(3).standard_normal((B, H)).astype(np.float32)

    def prog(ctx):
        pc = ParallelContext(
            ctx,
            Config.from_dict(
                dict(parallel=dict(tensor=dict(size=size, mode="1d")))
            ),
        )
        comm = pc.comm(ParallelMode.TENSOR)
        mlp = FeedForward(H, mlp_ratio=2, rng=np.random.default_rng(0),
                          mode=Mode1D(comm))
        x = Tensor(x_g.copy(), requires_grad=True)
        mlp(x).sum().backward()
        return float(x.grad.numpy().sum())

    return prog


def _edge_ops_prog(ctx):
    """What no harness above issues: ring pass, rooted scatter / gather, collectives
    on a size-1 subgroup (``c1`` events), an ``isend`` polled and waited (eager, or
    on the p2p stream under overlap), a polled ``iallreduce``, all-to-all, barrier."""
    comm = Communicator.world(ctx)
    x = np.full(4096, float(ctx.rank), dtype=np.float32)
    comm.ring_pass(x, shift=1)
    comm.scatter(x if comm.rank == 0 else None, root=0)
    comm.gather(x, root=0)
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


# -- the exact-parity grid -------------------------------------------------


class TestExactParityGrid:
    @pytest.mark.parametrize("algorithm", ["ring", "tree", "hierarchical"])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_data_parallel(self, algorithm, overlap):
        trace, rt, res_cap, res_real = _capture_pair(
            system_ii, 4, _ddp_prog(overlap),
            overlap=overlap, algorithm=algorithm,
        )
        assert res_cap == res_real  # capture is observation-only
        _assert_parity(rt, trace, project(trace, mode="recorded"))

    @pytest.mark.parametrize("algorithm", ["ring", "hierarchical"])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_zero(self, algorithm, overlap):
        trace, rt, res_cap, res_real = _capture_pair(
            lambda: uniform_cluster(2), 2, _zero_prog(overlap, world=2),
            overlap=overlap, algorithm=algorithm,
        )
        assert res_cap == res_real
        _assert_parity(rt, trace, project(trace, mode="recorded"))

    @pytest.mark.parametrize("sched_cls", [GPipeSchedule, OneFOneBSchedule])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_pipeline(self, sched_cls, overlap):
        trace, rt, res_cap, res_real = _capture_pair(
            lambda: uniform_cluster(4), 4, _pipeline_prog(sched_cls, stages=4),
            overlap=overlap,
        )
        assert res_cap == res_real
        _assert_parity(rt, trace, project(trace, mode="recorded"))

    @pytest.mark.parametrize("algorithm", ["ring", "tree"])
    def test_tensor_1d(self, algorithm):
        trace, rt, res_cap, res_real = _capture_pair(
            lambda: uniform_cluster(4), 4, _tp1d_prog(4), algorithm=algorithm,
        )
        assert res_cap == res_real
        _assert_parity(rt, trace, project(trace, mode="recorded"))

    @pytest.mark.parametrize("overlap", [False, True])
    def test_edge_ops(self, overlap):
        steps, labels = [], []
        for mk in (lambda: uniform_cluster(4), system_ii):
            trace, rt, _, _ = _capture_pair(mk, 4, _edge_ops_prog, overlap=overlap)
            recorded, model = (project(trace, mode=m) for m in ("recorded", "model"))
            _assert_parity(rt, trace, recorded)
            steps.append((rt.max_time(), model.step_time))
            labels.append((recorded.by_algorithm_bytes, model.by_algorithm_bytes))
        (threaded_u, model_u), (threaded_ii, model_ii) = steps
        # model mode re-prices ring_pass / _star / p2p through the fabric: on the uniform
        # cluster that is the identity fabric.py states, down to each byte's algorithm label
        assert model_u == threaded_u
        assert labels[0][0] == labels[0][1]
        # System II joins GPU pairs by NVLink and the pairs by PCIe; a two-level
        # Fabric has no level inside a node, prices every hop at the sampled
        # intra-node link and reads low: the abstraction's limit, stated
        assert model_ii < threaded_ii

    def test_world_16_data_parallel(self):
        trace, rt, _, _ = _capture_pair(
            lambda: uniform_cluster(16), 16, _ddp_prog(overlap=True, steps=1),
            overlap=True,
        )
        _assert_parity(rt, trace, project(trace, mode="recorded"))

    def test_comm_golden_storm(self):
        """Every communicator entry point, System II, comm streams on."""
        from test_comm_golden import WORLD, _storm

        trace, rt, res_cap, res_real = _capture_pair(
            system_ii, WORLD, _storm, overlap=True, algorithm="auto",
            materialize=False, seed=1,
        )
        assert res_cap == res_real
        _assert_parity(rt, trace, project(trace, mode="recorded"))

    def test_plan_golden_hybrid_step(self):
        """The plan golden's materialized GPT step at DP2 x TP2 x PP2."""
        from test_plan_golden import SEED, hybrid_gpt_step

        trace, rt, res_cap, res_real = _capture_pair(
            lambda: uniform_cluster(8), 8, hybrid_gpt_step(), seed=SEED,
        )
        assert res_cap == res_real
        _assert_parity(rt, trace, project(trace, mode="recorded"))


# -- model-mode repricing --------------------------------------------------


class TestModelModeRepricing:
    def test_from_cluster_fabric_reproduces_captured_costs(self):
        """Model mode at factor 1 on a ``Fabric.from_cluster`` of the
        captured (uniform) cluster re-derives every collective price from
        the closed-form fabric: wire bytes land exactly (integer formulas),
        seconds to ~1 ulp (the real ``ring_stats`` accumulates latency by
        iterated addition where the fabric multiplies)."""
        trace, rt, _, _ = _capture_pair(
            lambda: uniform_cluster(4), 4, _ddp_prog(overlap=False),
        )
        rec = project(trace, mode="recorded")
        mod = project(trace, mode="model")
        assert mod.step_time == pytest.approx(rec.step_time, rel=1e-9)
        assert mod.wire_bytes_total == rec.wire_bytes_total
        assert mod.by_op_bytes == rec.by_op_bytes
        assert mod.comm_calls_total == rec.comm_calls_total
        # offload traffic: the fabric's host link is the cluster's
        cluster = uniform_cluster(4)
        assert (ProjectedCostModel(Fabric.from_cluster(cluster)).host_transfer(0, 1 << 20)
                == CostModel(cluster).host_transfer(0, 1 << 20))

    @pytest.mark.parametrize("op", [
        "all_gather", "gather", "all_to_all", "ring_pass",
        "all_reduce", "reduce_scatter", "reduce",
    ])
    def test_round_priced_whoever_arrives_last(self, op):
        """Rank r sends (r+1)*4096 fp32 (a reduction: 4096, odd ranks fp16)
        and one rank arrives 20 ms late: the round is priced and counted at
        its largest member, so the run (which the recorded replay equals)
        reads the same whichever rank finalizes it, and so does model mode."""
        def prog(late):
            def fn(ctx):
                r = ctx.rank
                if op.startswith(("all_reduce", "reduce")):
                    x = np.ones(4096, np.float16 if r % 2 else np.float32)
                else:
                    x = np.ones((r + 1) * 4096, np.float32)
                if r == late:
                    time.sleep(0.02)
                comm = Communicator.world(ctx)
                getattr(comm, op)([x] * 4 if op == "all_to_all" else x)
            return fn

        seen = set()
        for late in range(4):
            _, trace = capture_run(uniform_cluster(4), prog(late), world_size=4)
            rec, model = (project(trace, mode=m) for m in ("recorded", "model"))
            facts = (rec.step_time, rec.wire_bytes_total, rec.wire_elements_total)
            assert facts == (model.step_time, model.wire_bytes_total,
                             model.wire_elements_total), late
            seen.add(facts)
        assert len(seen) == 1, seen

    def test_recorded_mode_rejects_scaling(self):
        trace, _, _, _ = _capture_pair(lambda: uniform_cluster(2), 2, _tp1d_prog(2))
        with pytest.raises(ValueError, match="recorded"):
            project(trace, axes={"dp": 2}, mode="recorded")

    def test_scale_out_grows_world_group_traffic(self):
        """At factor f the world group's all-reduce is re-priced at f·p
        ranks: ring wire is 2(p-1)·n, so bytes grow and step time cannot
        shrink (same compute, more expensive gradient sync)."""
        trace, _, _, _ = _capture_pair(
            lambda: uniform_cluster(4), 4, _ddp_prog(overlap=False),
        )
        fabric = Fabric.uniform()
        base = project(trace, fabric=fabric)
        big = project(trace, axes={"dp": 64}, fabric=fabric)
        assert big.target_world == 256
        assert big.factor == 64
        ar = "all_reduce"
        n = base.by_op_bytes[ar] // (2 * 3)  # 2(p-1)·n at p=4
        assert big.by_op_bytes[ar] == 2 * 255 * n
        assert big.step_time >= base.step_time
        assert big.peak_memory_bytes == base.peak_memory_bytes

    def test_unscaled_groups_count_factor_times(self):
        """Pipeline stage pairs are replicas in the projected world: their
        p2p traffic is multiplied by the factor, not re-priced wider.

        Captured at world 4 (pipeline 2 x data 2) so the stage pairs are
        *proper* subgroups of the world — a world-sized group would be the
        scale target (re-priced at multiplicity 1) rather than a replica.
        """
        trace, _, _, _ = _capture_pair(
            lambda: uniform_cluster(4), 4, _pipeline_prog(GPipeSchedule, stages=2),
        )
        world_group = tuple(range(4))
        assert any(
            g != world_group and len(g) < 4 for g in trace.groups
        ), trace.groups
        fabric = Fabric.uniform()
        base = project(trace, fabric=fabric)
        big = project(trace, axes={"dp": 8}, fabric=fabric)
        # p2p only runs on the stage pairs, which stay captured-size
        # replicas in the projected world: volume scales with replica count
        assert base.by_op_bytes["p2p"] > 0
        assert big.by_op_bytes["p2p"] == 8 * base.by_op_bytes["p2p"]

    def test_compute_scale_stretches_compute_only(self):
        trace, _, _, _ = _capture_pair(lambda: uniform_cluster(2), 2, _tp1d_prog(2))
        fabric = Fabric.uniform()
        base = project(trace, fabric=fabric)
        slow = project(trace, plan=ScalePlan(compute_scale=2.0),
                       fabric=fabric)
        assert slow.step_time > base.step_time
        assert slow.wire_bytes_total == base.wire_bytes_total

    def test_price_plan_prices_on_an_explicit_fabric(self):
        """Only no widening *and* no fabric replays the recorded costs: a
        fabric given with every factor 1 re-prices the trace on it."""
        def prog(ctx):
            Communicator.world(ctx).all_reduce(SpecArray((1 << 20,), "float32"))

        _, trace = capture_run(uniform_cluster(4), prog, world_size=4)
        slow = Fabric.uniform(bandwidth=1e9)
        model = project(trace, fabric=slow).to_dict()
        assert price_plan(trace, fabric=slow).to_dict() == model
        assert price_plan(trace, axes={"dp": 1}, fabric=slow).step_time == (
            model["step_time"])
        assert model["step_time"] > 10 * price_plan(trace).step_time

    def test_truncated_trace_stalls_loudly(self):
        trace, _, _, _ = _capture_pair(
            lambda: uniform_cluster(2), 2, _pipeline_prog(GPipeSchedule, stages=2),
        )
        # drop rank 1's tail: rank 0 ends up waiting on a recv forever
        cut = [ev for ev in trace.streams[1] if ev[0] in ("a",)]
        trace.streams[1] = cut
        with pytest.raises(ReplayStall):
            project(trace, mode="recorded")

    def test_model_mode_names_an_op_it_cannot_price(self):
        """An op outside the pricer's table is a loud stall naming it, like
        an unknown event tag — it used to be priced as an all-reduce."""
        trace, _, _, _ = _capture_pair(
            lambda: uniform_cluster(2), 2, _tp1d_prog(2))
        next(iter(trace.rounds.values()))["op"] = "all_shuffle"
        with pytest.raises(ReplayStall, match="'all_shuffle'"):
            project(trace, mode="model")

    def test_capture_rejects_fault_injection(self):
        from repro.faults import FaultPlan

        rt = SpmdRuntime(
            uniform_cluster(2), 2,
            fault_plan=FaultPlan(seed=1).glitch(op="all_reduce", attempts=2),
        )
        with pytest.raises(RuntimeError, match="fault injection"):
            CaptureRecorder().install(rt)


# -- hypothesis properties -------------------------------------------------

fast = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BB, SS, HH = 4, 8, 16  # all-reduce payload dims for the Table-1 property


@pytest.fixture(scope="module")
def allreduce_trace():
    """One world-group all-reduce of a (b, s, h) float32 spec tensor,
    captured at 4 ranks — the minimal 1D-TP-shaped op stream."""
    cluster = uniform_cluster(4)

    def prog(ctx):
        comm = Communicator.world(ctx)
        ctx.clock.advance(1e-4, "compute")
        comm.all_reduce(SpecArray((BB, SS, HH), "float32"))

    _, trace = capture_run(cluster, prog, world_size=4)
    return trace


_factors = st.sampled_from([1, 2, 4, 16, 64, 256])


class TestProjectionProperties:
    @given(factor=_factors)
    @fast
    def test_projection_is_deterministic(self, allreduce_trace, factor):
        fabric = Fabric.uniform()
        a = project(allreduce_trace, axes={"dp": factor}, fabric=fabric)
        b = project(allreduce_trace, axes={"dp": factor}, fabric=fabric)
        assert a.to_dict() == b.to_dict()

    @given(
        bw=st.floats(1e9, 1e12, allow_nan=False, allow_infinity=False),
        ratio=st.floats(1.0, 1e3, allow_nan=False, allow_infinity=False),
        factor=_factors,
    )
    @fast
    def test_step_time_non_increasing_in_bandwidth(
        self, allreduce_trace, bw, ratio, factor
    ):
        slow = project(allreduce_trace, axes={"dp": factor},
                       fabric=Fabric.uniform(bandwidth=bw))
        fastr = project(allreduce_trace, axes={"dp": factor},
                        fabric=Fabric.uniform(bandwidth=bw * ratio))
        assert fastr.step_time <= slow.step_time * (1 + 1e-12)

    @given(factor=_factors)
    @fast
    def test_projected_volume_matches_table1(self, allreduce_trace, factor):
        """Projected all-reduce wire elements equal the Table-1 closed form
        ``2(p'-1)·S_X`` at every projected world size p' (ring and tree
        all-reduce both move exactly that volume)."""
        rep = project(allreduce_trace, axes={"dp": factor},
                      fabric=Fabric.uniform())
        p2 = 4 * factor
        assert rep.target_world == p2
        assert rep.by_op_elements["all_reduce"] == comm_volume_1d(
            p2, BB, SS, HH
        )


# -- golden-file stability -------------------------------------------------


class TestGoldenStability:
    def _vit_ddp_prog(self):
        """A scaled-down Fig-13b scenario: DDP transformer stack on spec
        tensors, overlap on, 8 ranks."""
        from repro.nn import TransformerLayer

        LAYERS, HIDDEN, HEADS, PATCHES = 2, 64, 4, 8

        def prog(ctx):
            pc = _pc(ctx)
            stack = Sequential([TransformerLayer(HIDDEN, HEADS) for _ in range(LAYERS)])
            ddp = DistributedDataParallel(stack, pc, overlap=True)
            x = Tensor(SpecArray((B, PATCHES, HIDDEN), "float32"),
                       requires_grad=True)
            ddp(x).sum().backward()
            ddp.sync()

        return prog

    def test_fig13b_capture_replays_stably(self):
        """Two independent captures of the Fig-13b DDP scenario produce
        identical op streams and round facts, and project to the same
        report."""
        prog = self._vit_ddp_prog()
        _, t1 = capture_run(system_ii(), prog, world_size=8, comm_overlap=True)
        _, t2 = capture_run(system_ii(), prog, world_size=8, comm_overlap=True)

        assert t1.streams == t2.streams
        assert t1.rounds == t2.rounds

        r1 = project(t1, axes={"dp": 128}, fabric=Fabric.uniform()).to_dict()
        r2 = project(t2, axes={"dp": 128}, fabric=Fabric.uniform()).to_dict()
        assert r1 == r2
        assert r1["target_world"] == 1024


# -- hybrid-axis plans (ISSUE 7) -------------------------------------------


class TestScalePlanValidation:
    def test_axes_mutually_exclusive_with_plan(self, allreduce_trace):
        with pytest.raises(ValueError, match="not both"):
            project(allreduce_trace, axes={"dp": 2}, plan=ScalePlan())

    def test_axis_factor_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            ScalePlan(axes={"dp": 0})
        with pytest.raises(ValueError, match="int factor or a ScaleAxis"):
            ScalePlan(axes={"dp": 2.0})
        with pytest.raises(ValueError, match=">= 1"):
            ScaleAxis(factor=0)
        with pytest.raises(ValueError, match="sharded_bytes"):
            ScaleAxis(sharded_bytes=-1)

    def test_total_factor_is_product(self):
        assert ScalePlan(axes={"dp": 8, "tp": 2, "pp": 2}).total_factor() == 32
        assert ScalePlan().total_factor() == 1

    def test_unresolvable_axis_names_captured_layout(self):
        trace = _capture_pair(
            lambda: uniform_cluster(2), 2, _tp1d_prog(2)
        )[0]
        with pytest.raises(ValueError, match="tp"):
            project(trace, axes={"tp": 2}, fabric=Fabric.uniform())


class TestHybridAxisParity:
    """On a trace with no axis layout, ``dp`` resolves to the whole-world
    group: the data-parallel scale-out, reported as the ``dp`` axis."""

    def test_dp_axis_report_breakdown(self, allreduce_trace):
        rep = project(allreduce_trace, axes={"dp": 8},
                      fabric=Fabric.uniform())
        assert len(rep.axes) == 1
        ax = rep.axes[0]
        assert ax.name == "dp" and ax.factor == 8
        assert ax.captured_degree == 4 and ax.projected_degree == 32
        assert ax.multiplicity == 1
        assert ax.wire_elements == rep.wire_elements_total


# -- sharded-memory projection (ISSUE 7 satellite + tentpole) --------------


class TestShardedMemoryProjection:
    def test_dp_axis_reshards_state(self):
        """Regression: widening a group that shards state must shrink the
        projected peak instead of echoing the captured bytes verbatim."""
        trace = _capture_pair(
            lambda: uniform_cluster(2), 2, _zero_prog(False, world=2),
        )[0]
        captured = max(trace.peak_memory)
        assert captured > 0
        sharded = captured // 2
        fabric = Fabric.uniform()
        base = project(trace, axes={"dp": 8}, fabric=fabric)
        dp = ScaleAxis(factor=8, groups=((0, 1),), sharded_bytes=sharded)
        shrunk = project(trace, axes={"dp": dp}, fabric=fabric)
        assert base.peak_memory_bytes == captured  # no shards declared
        assert shrunk.peak_memory_bytes < captured
        assert shrunk.peak_memory_bytes == max(
            project_peak_memory(p, [(sharded, 8)]) for p in trace.peak_memory
        )

    def test_subgroup_scale_only_reshards_member_ranks(self):
        """An axis owning a proper subgroup shrinks only the ranks inside
        it; bystander ranks keep their captured peak."""
        trace = _capture_pair(
            lambda: uniform_cluster(4), 4, _ddp_prog(overlap=False),
        )[0]
        trace.peak_memory = [100, 200, 300, 400]
        dp = ScaleAxis(factor=4, groups=((0, 1),), sharded_bytes=80)
        rep = project(trace, axes={"dp": dp}, fabric=Fabric.uniform())
        peaks = [r.peak_memory_bytes for r in rep.per_rank]
        assert peaks[0] == 100 - 80 + 20  # ceil(80/4) = 20
        assert peaks[1] == 200 - 80 + 20
        assert peaks[2:] == [300, 400]

    def test_overdeclared_shards_clamp_to_captured_peak(self):
        assert project_peak_memory(100, [(1_000_000, 10)]) == 10
        assert project_peak_memory(0, [(64, 4)]) == 0
        assert project_peak_memory(100, []) == 100
        assert project_peak_memory(100, [(50, 1)]) == 100

    def test_composed_shards_stack(self):
        # dp shards 60 bytes 4x, tp shards 30 bytes 2x, 10 bytes replicated
        got = project_peak_memory(100, [(60, 4), (30, 2)])
        assert got == 10 + 15 + 15  # ceil(60/4)=15, ceil(30/2)=15


# -- hybrid DP x TP x PP acceptance ----------------------------------------

TPD, PPD = 2, 2          # captured tensor degree / pipeline depth
HYB_WORLD = 16           # -> dp degree 4
G_ELEMS = 4096           # gradient all-reduce payload (elements)
SYN_PEAK = 32 << 20      # synthetic captured per-rank peak (bytes)


@pytest.fixture(scope="module")
def hybrid_trace():
    """A DP(4) x TP(2) x PP(2) micro-step captured at 16 ranks: two tensor
    all-reduces (fwd+bwd), one boundary send/recv per pipeline chain, one
    gradient all-reduce per data group."""
    cfg = Config.from_dict(
        dict(parallel=dict(tensor=dict(size=TPD, mode="1d"), pipeline=PPD))
    )

    def prog(ctx):
        pc = ParallelContext(ctx, cfg)
        ctx.clock.advance(1e-4, "compute")
        tp = pc.comm(ParallelMode.TENSOR)
        tp.all_reduce(SpecArray((BB, SS, HH), "float32"))
        tp.all_reduce(SpecArray((BB, SS, HH), "float32"))
        pipe = pc.comm(ParallelMode.PIPELINE)
        if not pc.is_last_pipeline_stage():
            pipe.send(SpecArray((BB, SS, HH), "float32"), pc.pp_rank + 1)
        if not pc.is_first_pipeline_stage():
            pipe.recv(pc.pp_rank - 1)
        dp = pc.comm(ParallelMode.DATA)
        dp.all_reduce(SpecArray((G_ELEMS,), "float32"))

    _, trace = capture_run(
        uniform_cluster(HYB_WORLD), prog, world_size=HYB_WORLD,
        materialize=False,
    )
    trace.axes = derive_axis_groups(HYB_WORLD, tensor=TPD, pipeline=PPD)
    # spec-mode payloads never touch the memory pools; give the memory
    # model a deterministic captured peak to project
    trace.peak_memory = [SYN_PEAK] * HYB_WORLD
    return trace


class TestHybridAcceptance:
    """Paper-style 512-rank DP x TP x PP projection from a 16-rank capture
    (ISSUE 7 acceptance criterion): per-axis comm volume matches the
    ``repro.analytic.commvolume`` closed forms and peak memory reflects
    sharded state."""

    FACTORS = {"dp": 8, "tp": 2, "pp": 2}  # 16 * 32 = 512 ranks

    def _project(self, trace, sharded=None):
        plan = hybrid_plan(
            dict(self.FACTORS), world=HYB_WORLD, tensor=TPD, pipeline=PPD,
            sharded_bytes=sharded,
        )
        return project(trace, plan=plan, fabric=Fabric.uniform())

    def test_projects_16_ranks_to_512(self, hybrid_trace):
        rep = self._project(hybrid_trace)
        assert rep.source_world == 16
        assert rep.target_world == 512
        assert rep.factor == 32
        assert {a.name for a in rep.axes} == {"dp", "tp", "pp"}

    def test_tp_axis_volume_matches_closed_form(self, hybrid_trace):
        """8 tensor groups widened 2 -> 4, replicated dp_f*pp_f = 16 times,
        two all-reduces each: Table-1 gives 2(p-1)·bsh per round."""
        rep = self._project(hybrid_trace)
        ax = {a.name: a for a in rep.axes}["tp"]
        assert ax.captured_degree == TPD and ax.projected_degree == 4
        assert ax.num_groups == 8 and ax.multiplicity == 16
        assert ax.wire_elements == 8 * 16 * 2 * comm_volume_1d(4, BB, SS, HH)

    def test_dp_axis_volume_matches_closed_form(self, hybrid_trace):
        """4 data groups widened 4 -> 32, replicated tp_f*pp_f = 4 times,
        one gradient all-reduce each."""
        rep = self._project(hybrid_trace)
        ax = {a.name: a for a in rep.axes}["dp"]
        assert ax.captured_degree == 4 and ax.projected_degree == 32
        assert ax.num_groups == 4 and ax.multiplicity == 4
        assert ax.wire_elements == 4 * 4 * comm_volume_1d(32, 1, 1, G_ELEMS)

    def test_pp_axis_deepens_chain_boundaries(self, hybrid_trace):
        """8 pipeline chains deepened 2 -> 4 stages: captured p2p traffic
        crossed s-1 = 1 boundary, the projected chain crosses k·s-1 = 3,
        and each chain is replicated dp_f*tp_f = 16 times."""
        rep = self._project(hybrid_trace)
        ax = {a.name: a for a in rep.axes}["pp"]
        assert ax.chain
        assert ax.captured_degree == PPD and ax.projected_degree == 4
        nbytes = BB * SS * HH * 4
        assert ax.by_op_bytes["p2p"] == 8 * 16 * 3 * nbytes
        # and the whole-report p2p slice agrees (p2p only runs on chains)
        assert rep.by_op_bytes["p2p"] == 8 * 16 * 3 * nbytes

    def test_sharded_axes_shrink_peak_memory(self, hybrid_trace):
        zero_bytes = 12 << 20   # dp partitions optimizer state
        tp_bytes = 8 << 20      # tp partitions weight shards
        plain = self._project(hybrid_trace)
        rep = self._project(
            hybrid_trace, sharded={"dp": zero_bytes, "tp": tp_bytes}
        )
        assert plain.peak_memory_bytes == SYN_PEAK
        expected = project_peak_memory(
            SYN_PEAK, [(zero_bytes, 8), (tp_bytes, 2)]
        )
        assert rep.peak_memory_bytes == expected < SYN_PEAK
        assert all(r.peak_memory_bytes == expected for r in rep.per_rank)

    def test_hybrid_projection_is_deterministic(self, hybrid_trace):
        a = self._project(hybrid_trace).to_dict()
        b = self._project(hybrid_trace).to_dict()
        assert a == b


class TestComposedAxesProperties:
    @given(
        f1=st.sampled_from([1, 2, 8, 32]),
        f2=st.sampled_from([1, 2, 4]),
    )
    @fast
    def test_composed_volume_matches_table1(self, allreduce_trace, f1, f2):
        """Two axes over the same (world) group compose multiplicatively:
        projected all-reduce volume is the Table-1 closed form at
        ``p·f1·f2`` ranks."""
        plan = ScalePlan(axes={
            "dp": f1,
            "tp": ScaleAxis(factor=f2, groups=(tuple(range(4)),)),
        })
        rep = project(allreduce_trace, plan=plan, fabric=Fabric.uniform())
        p2 = 4 * f1 * f2
        assert rep.target_world == p2
        assert rep.by_op_elements["all_reduce"] == comm_volume_1d(
            p2, BB, SS, HH
        )

    @given(f1=st.sampled_from([2, 8]), f2=st.sampled_from([2, 4]))
    @fast
    def test_composed_projection_is_deterministic(
        self, allreduce_trace, f1, f2
    ):
        def run():
            plan = ScalePlan(axes={
                "dp": f1,
                "tp": ScaleAxis(factor=f2, groups=(tuple(range(4)),)),
            })
            return project(
                allreduce_trace, plan=plan, fabric=Fabric.uniform()
            ).to_dict()

        assert run() == run()


# -- config / launch wiring ------------------------------------------------


def _tp_gpipe_prog(ctx, pc):
    """1D-TP layers under GPipe, then data-parallel gradient sync."""
    s, e = partition_uniform(4, pc.pipeline_size)[pc.pp_rank]
    tp = Mode1D(pc.comm(ParallelMode.TENSOR))
    stage = Sequential([FeedForward(H, mlp_ratio=2, mode=tp) for _ in range(e - s)])
    GPipeSchedule(pc, 2).run(
        stage,
        SpecArray((B, H), "float32") if pc.is_first_pipeline_stage() else None,
        None,
        (lambda out, y: out.sum()) if pc.is_last_pipeline_stage() else None,
    )
    sync_gradients(stage.parameters(), pc.comm(ParallelMode.DATA))


class TestLaunchWiring:
    def test_launch_project_mode_returns_report(self):
        from repro.engine.initialize import launch

        def fn(ctx, pc):
            comm = Communicator.world(ctx)
            ctx.clock.advance(1e-4, "compute")
            comm.all_reduce(np.ones((32, 32), dtype=np.float32))

        rep = launch(
            {"project": {"target_world": 512}}, uniform_cluster(8), fn,
            world_size=8,
        )
        assert rep.target_world == 512
        assert rep.factor == 64
        assert rep.step_time > 0

    def test_launch_project_requires_divisible_target(self):
        from repro.engine.initialize import launch

        with pytest.raises(ValueError, match="multiple"):
            launch(
                {"project": {"target_world": 100}}, uniform_cluster(8),
                lambda ctx, pc: None, world_size=8,
            )

    @pytest.mark.parametrize("tp, pp, world, target", [
        (2, 1, 4, 16), (1, 2, 4, 16), (2, 2, 8, 32),
    ])
    def test_target_world_widens_dp_groups(self, tp, pp, world, target):
        """``project.target_world`` alone widens the ``dp`` axis of the
        config's layout: on the uniform fabric the projection equals a
        direct run at the target world, TP and PP groups included."""
        from repro.engine.initialize import launch

        parallel = {"tensor": {"size": tp, "mode": "1d"}, "pipeline": pp}
        rep = launch(
            {"parallel": parallel, "project": {"target_world": target}},
            uniform_cluster(world), _tp_gpipe_prog, world_size=world,
            materialize=False,
        )
        cfg = Config.from_dict({"parallel": parallel})
        rt = SpmdRuntime(uniform_cluster(target), target)
        rt.run(lambda ctx: _tp_gpipe_prog(ctx, ParallelContext(ctx, cfg)),
               materialize=False)
        assert rep.target_world == target
        assert rep.step_time == rt.max_time()

    def test_config_validation(self):
        cfg = Config.from_dict({"project": {"target_world": 64}})
        assert cfg.project.mode == "project"
        with pytest.raises(ValueError, match="mode"):
            Config.from_dict({"project": {"mode": "sideways"}})
        with pytest.raises(ValueError, match="target_world"):
            Config.from_dict(
                {"project": {"mode": "off", "target_world": 4}}
            )

    def test_config_axes_validation(self):
        cfg = Config.from_dict({"project": {"axes": {"dp": 8, "tp": 2}}})
        assert cfg.project.mode == "project"
        assert cfg.project.axes == {"dp": 8, "tp": 2}
        with pytest.raises(ValueError, match="unknown axis"):
            Config.from_dict({"project": {"axes": {"zp": 2}}})
        with pytest.raises(ValueError, match="int >= 1"):
            Config.from_dict({"project": {"axes": {"dp": 0}}})
        with pytest.raises(ValueError, match="int >= 1"):
            Config.from_dict({"project": {"axes": {"dp": 2.5}}})
        with pytest.raises(ValueError, match="non-empty"):
            Config.from_dict({"project": {"axes": {}, "mode": "project"}})
        cfg = Config.from_dict({})
        cfg.project.axes = {"dp": 2}
        with pytest.raises(ValueError, match="project.axes requires"):
            cfg.validate()

    def test_launch_hybrid_axes_returns_per_axis_report(self):
        from repro.engine.initialize import launch

        def fn(ctx, pc):
            ctx.clock.advance(1e-4, "compute")
            tp = pc.comm(ParallelMode.TENSOR)
            tp.all_reduce(SpecArray((BB, SS, HH), "float32"))
            dp = pc.comm(ParallelMode.DATA)
            dp.all_reduce(SpecArray((G_ELEMS,), "float32"))

        rep = launch(
            {
                "parallel": {"tensor": {"size": 2, "mode": "1d"}},
                "project": {"axes": {"dp": 16, "tp": 2}},
            },
            uniform_cluster(8), fn, world_size=8,
        )
        assert rep.target_world == 8 * 32
        assert rep.factor == 32
        assert {a.name for a in rep.axes} == {"dp", "tp"}
        tp_ax = {a.name: a for a in rep.axes}["tp"]
        assert tp_ax.captured_degree == 2 and tp_ax.projected_degree == 4

    def test_launch_hybrid_axes_target_world_must_agree(self):
        from repro.engine.initialize import launch

        with pytest.raises(ValueError, match="disagrees"):
            launch(
                {"project": {"axes": {"dp": 4}, "target_world": 100}},
                uniform_cluster(8), lambda ctx, pc: None, world_size=8,
            )
