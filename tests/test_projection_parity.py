"""Projection mode beyond exact parity.

``repro.project`` splits *what ops happen per rank* from *who executes
them*: a capture records each rank's op stream during a real threaded SPMD
run, and a single-threaded replay re-executes the stream on fresh clocks.
That a recorded replay equals the threaded run, end-state and timeline, on
every training program is relation 2 of the conformance oracle
(``test_conformance``); ``TestExactParityGrid`` runs it on the grid's old
cells by name.  Here also: model-mode repricing identity (a
``Fabric.from_cluster`` of the captured cluster reproduces the captured
costs), scale-out behaviour, and hypothesis properties — projection
determinism, step time monotone in fabric bandwidth, and projected
all-reduce volume matching the Table-1 ``2(p-1)·S_X`` closed form at every
projected scale.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytic.commvolume import comm_volume_1d
from repro.cluster import system_ii, uniform_cluster
from repro.comm import Communicator, SpecArray
from repro.comm.cost import CostModel
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.nn import FeedForward, Sequential
from repro.parallel.data import DistributedDataParallel, sync_gradients
from repro.parallel.pipeline import GPipeSchedule, OneFOneBSchedule, partition_uniform
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

from test_conformance import (
    B, H, CLUSTERS, Cell, captured, ddp_prog, pipeline_prog, plain, rel_capture, rel_replay,
    tp1d_prog, zero_prog,
)

pytestmark = pytest.mark.projection


def _trace(prog, world):
    """A materialized capture of ``prog`` on ``world`` uniform ranks."""
    return capture_run(uniform_cluster(world), prog, world_size=world,
                       materialize=True)[1]


# -- the exact-parity grid -------------------------------------------------


class TestExactParityGrid:
    """Relations 1 and 2 of the conformance oracle (captured == plain,
    recorded replay == threaded) on the grid's cells, by their old names."""

    @staticmethod
    def _parity(*cells):
        for cell in cells:
            rel_capture(cell)
            rel_replay(cell)

    @pytest.mark.parametrize("algorithm", ["ring", "tree", "hierarchical"])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_data_parallel(self, algorithm, overlap):
        self._parity(Cell("ddp", "system_ii", 4, algorithm, overlap))

    @pytest.mark.parametrize("algorithm", ["ring", "hierarchical"])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_zero(self, algorithm, overlap):
        self._parity(Cell("zero3", "uniform", 2, algorithm, overlap))

    @pytest.mark.parametrize("sched_cls", [GPipeSchedule, OneFOneBSchedule])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_pipeline(self, sched_cls, overlap):
        program = {GPipeSchedule: "gpipe", OneFOneBSchedule: "1f1b"}[sched_cls]
        self._parity(Cell(program, "uniform", 4, "ring", overlap))

    @pytest.mark.parametrize("algorithm", ["ring", "tree"])
    def test_tensor_1d(self, algorithm):
        self._parity(Cell("tp1d", "uniform", 4, algorithm, False))

    @pytest.mark.parametrize("overlap", [False, True])
    def test_edge_ops(self, overlap):
        """Model mode re-prices ring_pass / p2p through the fabric:
        on the uniform cluster that is the identity ``fabric.py`` states,
        down to each byte's algorithm label.  System II joins GPU pairs by
        NVLink and the pairs by PCIe; a two-level ``Fabric`` has no level
        inside a node, prices every hop at the sampled intra-node link and
        reads low: the abstraction's limit, stated."""
        uniform, ii = (Cell("edge", cluster, 4, "ring", overlap) for cluster in CLUSTERS)
        self._parity(uniform, ii)
        model = project(captured(uniform).trace, mode="model")
        assert model.step_time == plain(uniform).makespan
        assert model.by_algorithm_bytes == project(
            captured(uniform).trace, mode="recorded").by_algorithm_bytes
        assert project(captured(ii).trace, mode="model").step_time < plain(ii).makespan


# -- model-mode repricing --------------------------------------------------


class TestModelModeRepricing:
    def test_from_cluster_fabric_reproduces_captured_costs(self):
        """Model mode at factor 1 on a ``Fabric.from_cluster`` of the
        captured (uniform) cluster re-derives every collective price from
        the closed-form fabric: wire bytes land exactly (integer formulas),
        seconds to ~1 ulp (the real ``ring_stats`` accumulates latency by
        iterated addition where the fabric multiplies)."""
        trace = _trace(ddp_prog(overlap=False), 4)
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
        "all_gather", "all_to_all", "ring_pass",
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
        trace = _trace(tp1d_prog(2), 2)
        with pytest.raises(ValueError, match="recorded"):
            project(trace, axes={"dp": 2}, mode="recorded")

    def test_scale_out_grows_world_group_traffic(self):
        """At factor f the world group's all-reduce is re-priced at f·p
        ranks: ring wire is 2(p-1)·n, so bytes grow and step time cannot
        shrink (same compute, more expensive gradient sync)."""
        trace = _trace(ddp_prog(overlap=False), 4)
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
        trace = _trace(pipeline_prog(GPipeSchedule, stages=2), 4)
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
        trace = _trace(tp1d_prog(2), 2)
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
        trace = _trace(pipeline_prog(GPipeSchedule, stages=2), 2)
        # drop rank 1's tail: rank 0 ends up waiting on a recv forever
        cut = [ev for ev in trace.streams[1] if ev[0] in ("a",)]
        trace.streams[1] = cut
        with pytest.raises(ReplayStall):
            project(trace, mode="recorded")

    def test_model_mode_names_an_op_it_cannot_price(self):
        """An op outside the pricer's table is a loud stall naming it, like
        an unknown event tag — it used to be priced as an all-reduce."""
        trace = _trace(tp1d_prog(2), 2)
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
            pc = ParallelContext(ctx, Config.from_dict({}))
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
        trace = _trace(tp1d_prog(2), 2)
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
        trace = _trace(zero_prog(False), 2)
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
        trace = _trace(ddp_prog(overlap=False), 4)
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
