"""Collective algorithm layer: ``auto`` pricing, runtime/config plumbing,
per-algorithm counters and trace metadata, fault-driven re-selection."""

from operator import attrgetter

import numpy as np
import pytest

import repro
from repro.cluster import system_i, system_ii, uniform_cluster
from repro.comm import ALGORITHMS, SELECTABLE_OPS, Communicator, CostModel, SpecArray
from repro.config import CommConfig, Config
from repro.context import ParallelMode
from repro.faults import FaultPlan
from repro.runtime import SpmdRuntime
from repro.runtime.errors import RemoteRankError
from repro.sanitize import load_golden
from repro.serve import BlockPool, RequestTooLarge
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
    def test_hit_repriced_at_actual_size(self):
        """Within one power-of-two bucket the returned cost must track the
        actual byte count."""
        cm = CostModel(system_ii(), algorithm="auto")
        lo = cm.allreduce(range(8), 3 * MB)
        hi = cm.allreduce(range(8), 4 * MB - 8)  # same bucket, more bytes
        assert hi.seconds > lo.seconds

    def test_non_selectable_ops_bypass_cache(self):
        cm = CostModel(system_ii(), algorithm="auto")
        cm.all_to_all(range(8), MB)
        cm.barrier(range(8))
        assert not [key for key in cm.cluster.topology.prices
                    if key[0] in SELECTABLE_OPS]
        assert "all_to_all" not in SELECTABLE_OPS

    def test_earlier_run_does_not_change_auto_clocks(self):
        """``auto`` is a function of the call, not of what ran before: a
        3 MiB - 4 B world all-reduce after a 2 MiB one (same size bucket,
        where tree is cheapest) reads the clocks of a fresh runtime."""

        def allreduce(nbytes):
            def prog(ctx):
                comm = Communicator.world(ctx)
                comm.all_reduce(np.ones((nbytes // 4,), dtype=np.float32))
                return ctx.clock.time
            return prog

        fresh = SpmdRuntime(system_ii(), world_size=8, comm_algorithm="auto")
        used = SpmdRuntime(system_ii(), world_size=8, comm_algorithm="auto")
        used.run(allreduce(2 * MB))
        want = fresh.run(allreduce(3 * MB - 4))
        assert used.run(allreduce(3 * MB - 4)) == want
        assert max(want) == pytest.approx(605.33e-6, rel=1e-4)


class TestRuntimePlumbing:
    def test_runtime_rejects_bad_algorithm(self):
        with pytest.raises(ValueError, match="comm_algorithm"):
            SpmdRuntime(uniform_cluster(2), comm_algorithm="mesh")

    def test_apply_comm_updates_existing_groups(self):
        """A handed runtime takes the Config's comm section, its live groups
        included; ``algorithm=None`` keeps the runtime's own choice."""
        rt = SpmdRuntime(uniform_cluster(2))
        grp = rt.world_group
        repro.launch(dict(comm=dict(algorithm="auto")),
                     rt.cluster, lambda ctx, pc: None, runtime=rt)
        assert grp.cost_model.algorithm == "auto"
        rt.apply_comm(CommConfig())
        assert (rt.comm_algorithm, grp.cost_model.algorithm) == ("auto", "auto")
        rt.apply_comm(CommConfig(algorithm="tree"))
        assert (rt.comm_algorithm, grp.cost_model.algorithm) == ("tree", "tree")
        with pytest.raises(ValueError, match="comm_algorithm"):
            rt.apply_comm(CommConfig(algorithm="star"))

    def test_config_comm_section(self):
        cfg = Config.from_dict(dict(comm=dict(algorithm="auto")))
        assert cfg.comm.algorithm == "auto"
        with pytest.raises(ValueError, match="comm algorithm"):
            Config.from_dict(dict(comm=dict(algorithm="butterfly")))
        # islands use Topology.islands' one threshold: there is no knob
        with pytest.raises(ValueError, match=r"unknown keys in comm config: \['island_ratio'\]"):
            Config.from_dict(dict(comm=dict(island_ratio=0.4)))

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


def _dp_all_reduce(ctx, pc):
    pc.comm(ParallelMode.DATA).all_reduce(SpecArray((4 << 20,), "float32"))
    return ctx.clock.time


def _failing(ctx, pc):
    comm = pc.comm(ParallelMode.DATA)
    comm.all_reduce(np.ones(64, dtype=np.float32))
    if ctx.rank == 1:
        raise RuntimeError("boom")
    comm.all_reduce(np.ones(64, dtype=np.float32))


SERVE = dict(model=dict(n_layers=2, hidden=256, n_heads=4),
             traffic=dict(kind="closed", clients=4, n_requests=16))
#: each session kind's config section, and its result read as one sim time
SESSIONS = {
    "training": ({}, max),
    "projection": (dict(project=dict(target_world=4)), attrgetter("step_time")),
    "serving": (dict(serve=SERVE), attrgetter("makespan")),
}


class TestLaunchSessions:
    """``launch`` sets every session kind up once: the ``comm`` section, the
    sanitizer and the tracer reach the run whether ``launch`` builds the
    runtime or one is handed in, and a failed session leaves nothing behind."""

    @pytest.mark.parametrize("handed", [False, True], ids=["built", "handed"])
    @pytest.mark.parametrize("kind", list(SESSIONS))
    def test_session_reads_comm_sanitize_and_tracer(self, kind, handed, tmp_path):
        section, sim_time = SESSIONS[kind]
        ring = sim_time(repro.launch(section, system_ii(), _dp_all_reduce,
                                     world_size=4, materialize=False))
        # a handed runtime keeps its own algorithm when comm.algorithm is None
        rt = SpmdRuntime(system_ii(), 4, comm_algorithm="hierarchical") if handed else None
        comm = dict(algorithm=None if handed else "hierarchical")
        golden, tracer = tmp_path / "golden.json", Tracer()
        out = repro.launch(dict(section, comm=comm, sanitize=dict(record=str(golden))),
                           system_ii(), _dp_all_reduce, world_size=4,
                           materialize=False, runtime=rt, tracer=tracer)
        # the hierarchical schedule prices System II's two NVLink pairs apart
        # from the flat ring (faster for training's 16 MiB exchange, slower
        # for serving's small ones), so the session's time moves off ring's
        assert sim_time(out) != ring
        spans = tracer.spans(cat="collective")
        assert spans and {s.args["algo"] for s in spans} == {"hierarchical"}
        assert len(load_golden(str(golden))["streams"]) == 4
        if handed:
            assert rt.sanitizer is None
            assert rt.world_group.cost_model.algorithm == "hierarchical"

    @pytest.mark.parametrize("kind", list(SESSIONS))
    def test_failed_session_releases_what_it_installed(self, kind, monkeypatch):
        section, _ = SESSIONS[kind]
        rt = SpmdRuntime(system_ii(), 4)
        if kind == "serving":
            # lift admission's "can ever fit" bound, so requests the 64-slot
            # pool can never hold are admitted: one raises while it grows
            # its KV blocks mid-session
            init = BlockPool.__init__

            def unbounded(pool, *args, **kwargs):
                init(pool, *args, **kwargs)
                pool.token_capacity = float("inf")

            monkeypatch.setattr(BlockPool, "__init__", unbounded)
            section = dict(serve=dict(SERVE, kv_blocks=4))
        with pytest.raises((RemoteRankError, RequestTooLarge)) as err:
            repro.launch(dict(section, sanitize=dict(enabled=True)), rt.cluster,
                         _failing, runtime=rt)
        error = RequestTooLarge if kind == "serving" else RuntimeError
        assert isinstance(getattr(err.value, "cause", err.value), error)
        assert rt.sanitizer is None and rt.capture is None
        assert all(grp._rounds == {} for grp in rt._groups.values())
        rt.buffer_pool.check_leaks()  # no loan outstanding


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
        # the choice changed: with the islands gone, the two-level schedule
        # has nothing to exploit
        assert second.algorithm != "hierarchical"
        assert second.seconds != first.seconds
        topo.restore_links()
        third = cm.allreduce(range(8), 64 * MB)
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
