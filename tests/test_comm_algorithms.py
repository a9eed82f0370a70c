"""Collective algorithm layer: selector caching, runtime/config plumbing,
per-algorithm counters and trace metadata, fault-driven re-selection."""

import numpy as np
import pytest

import repro
from repro.cluster import system_i, system_ii, uniform_cluster
from repro.comm import ALGORITHMS, Communicator, CostModel, SpecArray
from repro.comm.algorithms import SELECTABLE_OPS
from repro.config import Config
from repro.context import ParallelMode
from repro.faults import FaultPlan
from repro.runtime import SpmdRuntime
from repro.trace import Tracer
from repro.utils.units import MB

pytestmark = pytest.mark.comm_algo

NVLINK_PAIRS = [("gpu0", "gpu1"), ("gpu2", "gpu3"),
                ("gpu4", "gpu5"), ("gpu6", "gpu7")]


def _allreduce_prog(ctx):
    comm = Communicator.world(ctx)
    out = comm.all_reduce(np.full((1 << 14,), float(ctx.rank), dtype=np.float32))
    return out.sum(), ctx.clock.time


class TestSelector:
    def test_miss_then_hit(self):
        cm = CostModel(system_ii(), algorithm="auto")
        cm.allreduce(range(8), 4 * MB)
        assert (cm.selector.misses, cm.selector.hits) == (1, 0)
        cm.allreduce(range(8), 4 * MB)
        assert (cm.selector.misses, cm.selector.hits) == (1, 1)
        assert len(cm.selector) == 1

    def test_cached_choice_exposed(self):
        cm = CostModel(system_ii(), algorithm="auto")
        assert cm.selector.cached_choice("all_reduce", range(8), 64 * MB) is None
        cm.allreduce(range(8), 64 * MB)
        assert (
            cm.selector.cached_choice("all_reduce", range(8), 64 * MB)
            == "hierarchical"
        )

    def test_distinct_groups_cached_separately(self):
        cm = CostModel(system_ii(), algorithm="auto")
        cm.allreduce(range(8), MB)
        cm.allreduce(range(4), MB)
        assert len(cm.selector) == 2

    def test_hit_repriced_at_actual_size(self):
        """Within one power-of-two bucket the returned cost must track the
        actual byte count, not the bucket representative's."""
        cm = CostModel(system_ii(), algorithm="auto")
        lo = cm.allreduce(range(8), 3 * MB)
        hi = cm.allreduce(range(8), 4 * MB - 8)  # same bucket, more bytes
        assert cm.selector.hits == 1
        assert hi.seconds > lo.seconds

    def test_non_selectable_ops_bypass_cache(self):
        cm = CostModel(system_ii(), algorithm="auto")
        cm.all_to_all(range(8), MB)
        cm.scatter(0, range(8), MB)
        cm.barrier(range(8))
        assert len(cm.selector) == 0
        assert "all_to_all" not in SELECTABLE_OPS

    def test_clear(self):
        cm = CostModel(system_ii(), algorithm="auto")
        cm.allreduce(range(8), MB)
        cm.selector.clear()
        assert len(cm.selector) == 0


class TestRuntimePlumbing:
    def test_runtime_rejects_bad_algorithm(self):
        with pytest.raises(ValueError, match="comm_algorithm"):
            SpmdRuntime(uniform_cluster(2), comm_algorithm="mesh")

    def test_set_comm_algorithm_updates_existing_groups(self):
        rt = SpmdRuntime(uniform_cluster(2))
        grp = rt.world_group
        assert grp.cost_model.algorithm == "ring"
        rt.set_comm_algorithm("auto")
        assert grp.cost_model.algorithm == "auto"
        with pytest.raises(ValueError):
            rt.set_comm_algorithm("star")

    def test_config_comm_section(self):
        cfg = Config.from_dict(dict(comm=dict(algorithm="auto", island_ratio=0.4)))
        assert cfg.comm.algorithm == "auto"
        assert cfg.comm.island_ratio == 0.4
        with pytest.raises(ValueError, match="comm algorithm"):
            Config.from_dict(dict(comm=dict(algorithm="butterfly")))
        with pytest.raises(ValueError, match="island_ratio"):
            Config.from_dict(dict(comm=dict(island_ratio=0.0)))

    def test_launch_plumbs_algorithm(self):
        rt = SpmdRuntime(system_ii(), world_size=4)

        def prog(ctx, pc):
            return None

        repro.launch(dict(comm=dict(algorithm="hierarchical")),
                     rt.cluster, prog, world_size=4, runtime=rt)
        assert rt.comm_algorithm == "hierarchical"
        assert rt.world_group.cost_model.algorithm == "hierarchical"

    def test_projection_capture_reads_island_ratio(self):
        def prog(ctx, pc):
            pc.comm(ParallelMode.DATA).all_reduce(SpecArray((4 << 20,), "float32"))
            return ctx.clock.time

        comm = dict(algorithm="hierarchical", island_ratio=0.05)
        direct = max(repro.launch(dict(comm=comm), system_ii(), prog, materialize=False))
        project = dict(comm=comm, project=dict(mode="project", target_world=8))  # recorded replay
        assert repro.launch(project, system_ii(), prog).step_time == direct

    def test_serving_reads_island_ratio(self):
        serve = dict(model=dict(n_layers=2, hidden=256, n_heads=4),
                     traffic=dict(kind="open", rate=2000.0, n_requests=10, prompt_tokens=[8, 16]))
        low, high = (repro.launch(dict(comm=dict(algorithm="hierarchical", island_ratio=r),
                                       serve=serve), system_ii(), world_size=4).makespan
                     for r in (0.05, 0.5))
        assert low < high

    def test_results_identical_across_algorithms(self):
        """Collective *results* never depend on the priced algorithm."""
        outs = {}
        for algo in ALGORITHMS + ("auto",):
            rt = SpmdRuntime(system_ii(), world_size=4, comm_algorithm=algo)
            res = rt.run(_allreduce_prog)
            outs[algo] = [v for v, _t in res]
        ring = outs["ring"]
        for algo, vals in outs.items():
            assert vals == ring, algo

    def test_hierarchical_faster_end_to_end(self):
        """The cost win shows up on the simulated clocks, not just in the
        cost model."""

        def big_prog(ctx):
            comm = Communicator.world(ctx)
            comm.all_reduce(np.ones((16 * MB // 4,), dtype=np.float32))
            return ctx.clock.time

        t_ring = max(SpmdRuntime(system_ii(), comm_algorithm="ring").run(big_prog))
        t_auto = max(SpmdRuntime(system_ii(), comm_algorithm="auto").run(big_prog))
        assert t_auto < t_ring


class TestCountersAndTrace:
    def test_by_algorithm_counters(self):
        rt = SpmdRuntime(system_ii(), world_size=8, comm_algorithm="hierarchical")
        rt.run(_allreduce_prog)
        counters = rt.world_group.counters
        assert counters.by_algorithm_calls == {"hierarchical": 1}
        assert counters.by_algorithm_bytes["hierarchical"] == counters.bytes_total

    def test_auto_counts_selected_family(self):
        rt = SpmdRuntime(system_ii(), world_size=8, comm_algorithm="auto")

        def prog(ctx):
            comm = Communicator.world(ctx)
            comm.all_reduce(np.ones((64 * MB // 4,), dtype=np.float32))
            comm.all_reduce(np.ones((16,), dtype=np.float32))

        rt.run(prog)
        calls = rt.world_group.counters.by_algorithm_calls
        assert calls.get("hierarchical") == 1  # the 64 MiB call
        assert sum(calls.values()) == 2

    def test_counters_merge_and_reset(self):
        rt = SpmdRuntime(system_ii(), world_size=4, comm_algorithm="hierarchical")
        rt.run(_allreduce_prog)
        c = rt.world_group.counters
        assert c.by_algorithm_calls["hierarchical"] == 1
        c.reset()
        assert c.by_algorithm_calls == {}

    def test_trace_spans_carry_algorithm(self):
        tracer = Tracer()
        rt = SpmdRuntime(system_ii(), world_size=4,
                         comm_algorithm="auto", tracer=tracer)
        rt.run(_allreduce_prog)
        spans = tracer.spans(cat="collective")
        assert spans
        assert all(s.args.get("algo") in ALGORITHMS for s in spans)


class TestFaultReselection:
    """Satellite: link degradation (PR 1 faults) must re-trigger selection."""

    @pytest.mark.chaos
    def test_scale_link_invalidates_selector(self):
        cm = CostModel(system_ii(), algorithm="auto")
        first = cm.allreduce(range(8), 64 * MB)
        assert first.algorithm == "hierarchical"
        topo = cm.cluster.topology
        for a, b in NVLINK_PAIRS:
            topo.scale_link(a, b, 0.01)  # NVLink now far below PCIe
        second = cm.allreduce(range(8), 64 * MB)
        # cache was dropped (a fresh miss) and the choice changed: with the
        # islands gone, the two-level schedule has nothing to exploit
        assert cm.selector.misses == 2
        assert second.algorithm != "hierarchical"
        assert second.seconds != first.seconds
        topo.restore_links()
        third = cm.allreduce(range(8), 64 * MB)
        assert cm.selector.misses == 3
        assert third.algorithm == first.algorithm
        assert third.seconds == pytest.approx(first.seconds)

    @pytest.mark.chaos
    def test_fault_plan_degradation_reroutes(self, fault_seed):
        """End to end: a FaultPlan LinkDegrade changes what auto picks and
        what lands in the by-algorithm counters."""

        def prog(ctx):
            comm = Communicator.world(ctx)
            comm.all_reduce(np.ones((64 * MB // 4,), dtype=np.float32))
            return ctx.clock.time

        healthy = SpmdRuntime(system_ii(), comm_algorithm="auto")
        t_healthy = max(healthy.run(prog))
        assert healthy.world_group.counters.by_algorithm_calls == {
            "hierarchical": 1
        }

        plan = FaultPlan(seed=fault_seed)
        for src, dst in ((0, 1), (2, 3), (4, 5), (6, 7)):
            plan.degrade_link(src=src, dst=dst, factor=0.01)
        degraded = SpmdRuntime(system_ii(), comm_algorithm="auto",
                               fault_plan=plan)
        t_degraded = max(degraded.run(prog))
        calls = degraded.world_group.counters.by_algorithm_calls
        assert "hierarchical" not in calls
        assert t_degraded > t_healthy

    @pytest.mark.chaos
    def test_selection_survives_island_collapse_numerically(self, fault_seed):
        """Results stay bitwise identical when degradation flips the
        algorithm mid-plan."""
        plan = FaultPlan(seed=fault_seed).degrade_link(src=0, dst=1, factor=0.05)
        base = SpmdRuntime(system_ii(), world_size=4, comm_algorithm="auto")
        faulty = SpmdRuntime(system_ii(), world_size=4, comm_algorithm="auto",
                             fault_plan=plan)
        vals_base = [v for v, _ in base.run(_allreduce_prog)]
        vals_faulty = [v for v, _ in faulty.run(_allreduce_prog)]
        assert vals_base == vals_faulty
