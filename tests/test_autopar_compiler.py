"""Auto-parallel strategy compiler (ISSUE 9): search properties,
prediction-vs-simulation parity, config emission, and ZeRO-aware memory
feasibility.

The compiler's contract, tested here:

* **Feasibility** — it never emits a plan whose analytic memory exceeds
  the device pool; when nothing fits it raises with the rejection census.
* **Optimality (analytic)** — with ``refine=False`` the chosen plan's
  analytic step time is <= every enumerated feasible candidate's.
* **Valid emission** — every emitted config round-trips
  ``Config.from_dict`` and reproduces the candidate's decisions.
* **Determinism** — same inputs, same chosen plan, same predicted time
  (ties break on the candidate sort key, never on dict/hash order).
* **Parity** — the projector-refined step time of a shortlisted candidate
  equals an independent threaded simulation of the same skeleton
  **bit-for-bit** when the probe runs at the target world size (recorded
  mode).  When the probe is captured at a reduced data-parallel degree
  and model-mode projected, the documented tolerance is 10% (the pipeline
  chain-widening term is approximate; pure DP/TP widening on a uniform
  fabric is near-exact).
"""

import dataclasses
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.autopar.compiler import (
    compile_strategy,
    launched_program,
    launched_step,
    probe_scale,
    refine_candidate,
    simulate_candidate,
)
from repro.autopar.scoring import (
    _CostCache,
    score_candidate,
    tp_layer_ops,
)
from repro.autopar.search import (
    SearchSpace,
    StrategyCandidate,
    Workload,
    enumerate_candidates,
)
from repro.cluster import (
    system_i,
    system_ii,
    system_iii,
    system_iv,
    uniform_cluster,
)
from repro.comm import SpecArray
from repro.config import COMM_ALGORITHMS, FIELDS, ZERO_STAGES, Config, ConfigError
from repro.context import rank_groups
from repro.engine import launch
from repro.nn import Sequential, TransformerLayer
from repro.parallel import tensor_mode
from repro.runtime.errors import RemoteRankError
from repro.tensor import Tensor

pytestmark = pytest.mark.autopar

WORK = Workload(n_layers=4, hidden=256, n_heads=4, seq_len=64)
FIG11_WORK = Workload(n_layers=16, hidden=3072, n_heads=48, seq_len=196)


# -- candidate enumeration --------------------------------------------------


class TestEnumeration:
    def test_deterministic_order(self):
        a = list(enumerate_candidates(WORK, 128, 8))
        b = list(enumerate_candidates(WORK, 128, 8))
        assert a == b and len(a) > 0

    def test_structural_invariants(self):
        for cand in enumerate_candidates(WORK, 128, 8):
            assert cand.world == 8
            assert 128 % (cand.data * cand.microbatches) == 0
            assert cand.pipeline <= WORK.n_layers
            if cand.pipeline == 1:
                assert cand.schedule == "gpipe" and cand.microbatches == 1
            if cand.data == 1:
                assert cand.zero_stage == 0
            if cand.overlap:  # the one layout initialize wraps in DDP
                assert cand.data > 1 and cand.tensor == cand.pipeline == 1
            if cand.mode == "2d":
                q = math.isqrt(cand.tensor)
                assert q * q == cand.tensor
            if cand.mode in ("1d", "sequence") and cand.tensor > 1:
                assert WORK.n_heads % cand.tensor == 0

    def test_space_validation(self):
        with pytest.raises(ValueError, match="schedule"):
            SearchSpace(schedules=("interleaved",)).validate()
        with pytest.raises(ValueError, match="ZeRO"):
            SearchSpace(zero_stages=(3,)).validate()
        with pytest.raises(ValueError, match="algorithm"):
            SearchSpace(algorithms=("nccl",)).validate()

    @pytest.mark.parametrize("field, value", [
        ("tensor_modes", ("1D",)),
        ("tensor_modes", ()),
        ("schedules", ()),
        ("microbatch_options", (0, -2)),
        ("microbatch_options", (2.5,)),
        ("microbatch_options", (True,)),
        ("microbatch_options", ()),
        ("zero_stages", ()),
        ("zero_stages", (True,)),
        ("overlap_options", (0, 1)),
        ("overlap_options", ()),
        ("algorithms", ()),
    ])
    def test_space_validation_covers_every_field(self, field, value):
        """A bad value used to drop candidates silently (every pipelined
        one, every DP > 1 one) or end in "no structurally valid
        candidates"; now it names the field and what it may hold."""
        space = SearchSpace(**{field: value})
        with pytest.raises(ValueError, match=rf"SearchSpace\.{field}.*valid"):
            space.validate()
        with pytest.raises(ValueError, match=field):
            list(enumerate_candidates(WORK, 128, 8, space))

    @given(
        world=st.sampled_from([2, 4, 6, 8, 12, 16]),
        batch_per=st.sampled_from([8, 16, 24]),
    )
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_decomposition_always_exact(self, world, batch_per):
        for cand in enumerate_candidates(WORK, batch_per * world, world):
            assert cand.data * cand.tensor * cand.pipeline == world


# -- analytic scoring / feasibility -----------------------------------------


class TestScoring:
    def test_never_emits_infeasible(self):
        cl = uniform_cluster(8, memory_gb=16)
        cs = compile_strategy(cl, WORK, 128, refine=False)
        assert cs.score.feasible
        assert cs.score.memory_bytes <= cl.gpus[0].memory_capacity

    def test_raises_when_nothing_fits(self):
        big = Workload(n_layers=48, hidden=8192, n_heads=64, seq_len=2048)
        cl = uniform_cluster(2, memory_gb=1)
        with pytest.raises(ValueError, match="no feasible candidate"):
            compile_strategy(cl, big, 64, refine=False)

    def test_rejection_reasons_recorded(self):
        big = Workload(n_layers=24, hidden=4096, n_heads=32, seq_len=1024)
        cl = uniform_cluster(8, memory_gb=12)
        cs = compile_strategy(cl, big, 64, refine=False)
        rejected = [s for s in cs.report.scored if not s.feasible]
        assert rejected, "scenario expected to reject some candidates"
        assert all(s.reason.startswith("out of memory") for s in rejected)
        assert "rejected" in cs.report.format()

    def test_chosen_is_analytic_minimum(self):
        cl = uniform_cluster(8, memory_gb=16)
        cs = compile_strategy(cl, WORK, 128, refine=False)
        cache = _CostCache(cl)
        for cand in enumerate_candidates(WORK, 128, 8):
            s = score_candidate(cl, WORK, cand, 128, cache)
            if s.feasible:
                assert cs.score.step_seconds <= s.step_seconds

    def test_pipeline_bubble_accounted(self):
        cl = uniform_cluster(8, memory_gb=16)
        cache = _CostCache(cl)
        for cand in enumerate_candidates(WORK, 128, 8):
            s = score_candidate(cl, WORK, cand, 128, cache)
            if s.feasible:
                assert (s.bubble_fraction > 0) == (cand.pipeline > 1)

    @given(
        world=st.sampled_from([2, 4, 8]),
        memory_gb=st.sampled_from([2, 8, 32]),
    )
    @settings(max_examples=9, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_feasible_or_raises(self, world, memory_gb):
        cl = uniform_cluster(world, memory_gb=memory_gb)
        try:
            cs = compile_strategy(cl, WORK, 16 * world, refine=False)
        except ValueError:
            return  # nothing fits: acceptable outcome, never a bad plan
        assert cs.score.feasible
        assert cs.score.memory_bytes <= cl.gpus[0].memory_capacity

    def test_tp_ops_shared_by_probe_and_scorer(self):
        """The op records are the single source of truth: every record's
        group family must exist for its candidate's mode."""
        for cand in [
            StrategyCandidate(data=2, tensor=4, mode="1d", pipeline=1),
            StrategyCandidate(data=2, tensor=4, mode="2d", pipeline=1),
            StrategyCandidate(data=1, tensor=8, mode="2.5d", pipeline=1,
                              depth=2),
            StrategyCandidate(data=1, tensor=8, mode="3d", pipeline=1),
            StrategyCandidate(data=2, tensor=4, mode="sequence", pipeline=1),
        ]:
            groups = rank_groups(cand.tensor, cand.tensor, 1, cand.mode, cand.depth)
            ops = tp_layer_ops(WORK, cand, 8)
            assert ops, cand.mode
            for op in ops:
                assert op.group in groups
                assert op.nbytes >= 1

    @pytest.mark.parametrize("cluster", ["iii", "ii", "iv"])
    @pytest.mark.parametrize("mode, tensor, depth", [
        ("1d", 8, 1), ("2d", 4, 1), ("2.5d", 8, 2), ("3d", 8, 1),
        ("sequence", 8, 1)])
    def test_probe_moves_what_scorer_prices(self, cluster, mode, tensor, depth):
        """Probe and scorer read one layout: no compute, the scored TP time."""
        cl = dict(iii=lambda: system_iii(n_nodes=2), ii=system_ii, iv=system_iv)[cluster]()
        work = Workload(n_layers=2, hidden=1024, n_heads=16, seq_len=128)
        cand = StrategyCandidate(1, tensor, mode, 1, depth=depth)
        scored = score_candidate(cl, work, cand, 8).tp_comm_seconds
        assert simulate_candidate(cl, work, cand, 8, 0.0) == pytest.approx(scored, rel=1e-12)


class TestCompileArguments:
    """``compile_strategy`` called directly checks what the ``autopar``
    config section checks, before anything is scored."""

    @pytest.mark.parametrize("kwargs, message", [
        # was: "min() arg is an empty sequence"
        (dict(top_k=0), "top_k must be >= 1, got 0"),
        # was: feasible[:-1] — every feasible candidate but one refined
        (dict(top_k=-1), "top_k must be >= 1, got -1"),
        # was: a "plan" with zero compute
        (dict(global_batch=0), "global_batch must be >= 1, got 0"),
        # was: refinement silently skipped
        (dict(max_probe_world=0), "max_probe_world must be >= 1, got 0"),
    ])
    def test_out_of_range_argument_raises(self, kwargs, message, monkeypatch):
        import repro.autopar.compiler as compiler

        def no_scoring(*a, **k):
            raise AssertionError("scored before the arguments were checked")

        monkeypatch.setattr(compiler, "score_candidate", no_scoring)
        kwargs.setdefault("global_batch", 128)
        with pytest.raises(ValueError, match=message):
            compile_strategy(uniform_cluster(8), WORK, **kwargs)

    @pytest.mark.parametrize("bad, message", [
        (dict(n_layers=0), "n_layers must be >= 1, got 0"),
        (dict(seq_len=-1), "seq_len must be >= 1, got -1"),
        (dict(n_heads=3, hidden=8), "hidden 8 not divisible by n_heads 3"),
    ])
    def test_workload_dict_out_of_range_raises(self, bad, message, monkeypatch):
        """``Workload`` owns its bounds: a dict workload is checked by the
        same ``__post_init__`` the ``autopar.workload`` config path runs."""
        import repro.autopar.compiler as compiler

        def no_scoring(*a, **k):
            raise AssertionError("scored a workload that should not exist")

        monkeypatch.setattr(compiler, "score_candidate", no_scoring)
        work = {**dict(n_layers=4, hidden=256, n_heads=4, seq_len=64), **bad}
        with pytest.raises(ValueError, match=message):
            compile_strategy(uniform_cluster(8), work, 128)

    def test_config_section_shares_the_check(self):
        with pytest.raises(ValueError, match=r"autopar\.top_k must be >= 1"):
            Config.from_dict(dict(autopar=dict(
                workload=dict(n_layers=4, hidden=256, n_heads=4, seq_len=64),
                top_k=0)))


# -- the term table: shared scoring == cold scoring -------------------------

_SYSTEMS = {
    "i": system_i,
    "ii": system_ii,
    "iii": lambda: system_iii(n_nodes=4),
    "iv": lambda: system_iv(n_nodes=16),
}


def _subset(values):
    return st.lists(
        st.sampled_from(values), min_size=1, unique=True).map(tuple)


class TestTermTable:
    @given(
        system=st.sampled_from(sorted(_SYSTEMS)),
        world=st.sampled_from([4, 8, 16]),
        per_rank=st.sampled_from([2, 6, 8]),
        space=st.builds(
            SearchSpace,
            tensor_modes=_subset(("1d", "2d", "2.5d", "3d", "sequence")),
            schedules=_subset(("gpipe", "1f1b")),
            microbatch_options=_subset((1, 2, 4, 8)),
            zero_stages=_subset(ZERO_STAGES),
            overlap_options=_subset((False, True)),
            algorithms=_subset(COMM_ALGORITHMS),
        ),
        # heads and sequence divide every tensor degree, so sequence mode
        # appears; the large ones run into checkpointing and OOM
        work=st.builds(
            Workload,
            n_layers=st.sampled_from([4, 12, 24]),
            hidden=st.sampled_from([256, 1024, 4096]),
            n_heads=st.sampled_from([16, 32]),
            seq_len=st.sampled_from([64, 192, 1024]),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # derandomized so tier-1 scores the same 40 draws on every run and a
    # failure it reports is one it reports again; `auto` prices a call at
    # its own size, whatever was priced before, so no draw is known to fail
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def test_shared_table_equals_cold_scoring(
            self, system, world, per_rank, space, work, seed):
        """Scoring a shuffled candidate sequence through one long-lived
        table gives, field for field (``==`` on floats), what scoring each
        candidate with a fresh table gives — a term stored under too few
        of the fields it reads is a hit it should not be."""
        cluster = _SYSTEMS[system]()
        world = min(world, cluster.world_size)
        batch = per_rank * world
        cands = list(enumerate_candidates(work, batch, world, space))
        random.Random(seed).shuffle(cands)
        table = _CostCache(cluster)
        for cand in cands[:400]:
            shared = score_candidate(cluster, work, cand, batch, table)
            cold = score_candidate(cluster, work, cand, batch, _CostCache(cluster))
            assert dataclasses.astuple(shared) == dataclasses.astuple(cold)

    def test_sequence_weight_term_reads_the_microbatch_count(self):
        """Same tensor degree, micro-batch and algorithm, different
        microbatch count: the sequence-mode TP term must not be shared."""
        cl = uniform_cluster(16, memory_gb=80)
        work = Workload(n_layers=8, hidden=1024, n_heads=16, seq_len=64)
        a, b = (
            StrategyCandidate(data=d, tensor=2, mode="sequence", pipeline=p,
                              microbatches=m)
            for d, p, m in ((2, 4, 2), (1, 8, 4)))
        table = _CostCache(cl)
        warm = [score_candidate(cl, work, c, 64, table) for c in (a, b)]
        assert warm[0].tp_comm_seconds != warm[1].tp_comm_seconds
        assert warm[1] == score_candidate(cl, work, b, 64)

    def test_table_rebinds_to_a_new_workload_or_batch(self):
        cl = uniform_cluster(8)
        cand = StrategyCandidate(data=2, tensor=2, mode="1d", pipeline=2,
                                 microbatches=2)
        other = Workload(n_layers=8, hidden=512, n_heads=8, seq_len=128)
        table = _CostCache(cl)
        for work, batch in ((WORK, 64), (other, 64), (other, 128), (WORK, 64)):
            assert score_candidate(cl, work, cand, batch, table) \
                == score_candidate(cl, work, cand, batch)

    def test_simulate_reads_the_compute_term_alone(self):
        cl = uniform_cluster(4)
        cand = StrategyCandidate(data=2, tensor=2, mode="1d", pipeline=1,
                                 zero_stage=1)
        score = score_candidate(cl, WORK, cand, 64)
        assert score.feasible
        assert simulate_candidate(cl, WORK, cand, 64) == simulate_candidate(
            cl, WORK, cand, 64, compute_seconds=score.compute_seconds)


# -- config emission --------------------------------------------------------


class TestConfigEmission:
    def test_all_candidates_round_trip(self):
        for cand in enumerate_candidates(WORK, 128, 8):
            cfg = Config.from_dict(cand.to_config_dict(WORK))
            assert cfg.tensor.size == cand.tensor
            if cand.tensor > 1:
                assert cfg.tensor.mode == cand.mode
            else:
                assert cfg.tensor.mode == "none"
            assert cfg.pipeline == cand.pipeline
            assert cfg.data == cand.data
            assert cfg.num_microbatches == cand.microbatches
            assert cfg.zero.stage == cand.zero_stage
            assert cfg.comm.algorithm == cand.algorithm
            assert cfg.comm.overlap == cand.overlap
            if cand.pipeline > 1:
                assert cfg.pipeline_schedule == cand.schedule
            assert cfg.infer_data_size(cand.world) == cand.data

    def test_compiled_config_validates(self):
        cl = uniform_cluster(8, memory_gb=16)
        cs = compile_strategy(cl, WORK, 128, refine=False)
        cfg = Config.from_dict(cs.config)
        assert cfg.infer_data_size(8) == cs.candidate.data

    def test_apply_to_preserves_unrelated_settings(self):
        cl = uniform_cluster(8, memory_gb=16)
        cs = compile_strategy(cl, WORK, 128, refine=False)
        base = Config.from_dict(dict(
            seed=7, gradient_clipping=1.0,
            autopar=dict(workload=dict(n_layers=4, hidden=256, n_heads=4,
                                       seq_len=64)),
        ))
        merged = cs.apply_to(base)
        assert merged.seed == 7
        assert merged.gradient_clipping == 1.0
        assert not merged.autopar.enabled  # consumed
        assert merged.tensor.size == cs.candidate.tensor
        assert merged.pipeline_schedule == cs.candidate.schedule

    def test_apply_to_decides_what_the_compiled_config_says(self):
        """``launch`` with an ``autopar`` section runs what ``compiled.config``
        says: every field the plan decides (``fp16.enabled`` for this 2-byte
        workload included) reads as in ``Config.from_dict(compiled.config)``
        over a base that says otherwise, and the rest carries over."""
        cs = compile_strategy(uniform_cluster(8, memory_gb=16), WORK, 128, refine=False)
        assert cs.config["fp16"] == {"enabled": True}
        base = Config.from_dict(dict(
            seed=7, fp16=dict(initial_scale=8.0), zero=dict(stage=2),
            parallel=dict(pipeline=2), pipeline_schedule="1f1b", comm=dict(algorithm="tree"),
        ))
        planned, merged = Config.from_dict(cs.config).to_dict(), cs.apply_to(base).to_dict()

        def at(d, key):
            for part in key.split("."):
                d = d[part]
            return d

        decided = [f.key for f in FIELDS
                   if f.key.split(".")[0] in ("parallel", "num_microbatches",
                                              "pipeline_schedule", "zero", "comm")
                   or f.key == "fp16.enabled"]
        assert {k: at(merged, k) for k in decided} == {k: at(planned, k) for k in decided}
        assert (merged["seed"], merged["fp16"]["initial_scale"]) == (7, 8.0)

    def test_autopar_config_validation(self):
        with pytest.raises(ValueError, match="workload"):
            Config.from_dict(dict(autopar=dict(enabled=True)))
        with pytest.raises(ValueError, match="missing required"):
            Config.from_dict(dict(autopar=dict(workload=dict(hidden=64))))
        with pytest.raises(ValueError, match="pipeline schedule"):
            Config.from_dict(dict(pipeline_schedule="interleaved"))


# -- determinism ------------------------------------------------------------


class TestDeterminism:
    def test_repeated_compiles_identical(self):
        cl = uniform_cluster(8, memory_gb=16)
        a = compile_strategy(cl, WORK, 128, top_k=2)
        b = compile_strategy(cl, WORK, 128, top_k=2)
        assert a.candidate == b.candidate
        assert a.predicted_step_seconds == b.predicted_step_seconds
        assert a.config == b.config


# -- prediction-vs-simulation parity (acceptance grid) ----------------------


def _grid_candidate(kind: str, world: int, algo: str) -> StrategyCandidate:
    if kind == "dp":
        return StrategyCandidate(data=world, tensor=1, mode="1d",
                                 pipeline=1, algorithm=algo)
    if kind == "tp1d":
        return StrategyCandidate(data=world // 2, tensor=2, mode="1d",
                                 pipeline=1, algorithm=algo)
    return StrategyCandidate(data=world // 2, tensor=1, mode="1d",
                             pipeline=2, schedule="gpipe", microbatches=4,
                             algorithm=algo)


class TestPredictionParity:
    """Acceptance criterion: the compiler's projector-refined step time
    equals the threaded simulation of the same skeleton bit-for-bit in
    recorded mode, across worlds 4-16 x {DP, 1D-TP, GPipe} x
    {ring, tree}."""

    @pytest.mark.parametrize("world", [4, 8, 16])
    @pytest.mark.parametrize("algo", ["ring", "tree"])
    @pytest.mark.parametrize("kind", ["dp", "tp1d", "gpipe"])
    def test_recorded_mode_exact(self, world, algo, kind):
        cand = _grid_candidate(kind, world, algo)
        cl = uniform_cluster(world)
        batch = 16 * world
        s = score_candidate(cl, WORK, cand, batch, _CostCache(cl))
        r = refine_candidate(cl, WORK, cand, batch, s, max_probe_world=16)
        assert r is not None and r.mode == "recorded"
        sim = simulate_candidate(cl, WORK, cand, batch, s.compute_seconds)
        assert r.step_seconds == sim  # bit-for-bit

    @pytest.mark.parametrize("stage", [1, 2])
    def test_recorded_mode_exact_zero_1f1b(self, stage):
        """A ZeRO + 1F1B + TP composite, as ``initialize`` builds it."""
        cand = StrategyCandidate(data=4, tensor=2, mode="1d", pipeline=2,
                                 schedule="1f1b", microbatches=4,
                                 zero_stage=stage, algorithm="ring")
        cl = uniform_cluster(16)
        s = score_candidate(cl, WORK, cand, 256, _CostCache(cl))
        r = refine_candidate(cl, WORK, cand, 256, s, max_probe_world=16)
        assert r is not None and r.mode == "recorded"
        sim = simulate_candidate(cl, WORK, cand, 256, s.compute_seconds)
        assert r.step_seconds == sim

    def test_model_mode_documented_tolerance(self):
        """Reduced-DP capture + model-mode widening: within 10% of the
        full threaded simulation (exactness is only promised in recorded
        mode)."""
        cl = uniform_cluster(16)
        for cand in [
            StrategyCandidate(data=16, tensor=1, mode="1d", pipeline=1,
                              algorithm="ring"),
            StrategyCandidate(data=4, tensor=2, mode="1d", pipeline=2,
                              microbatches=4, algorithm="ring"),
        ]:
            s = score_candidate(cl, WORK, cand, 256, _CostCache(cl))
            r = refine_candidate(cl, WORK, cand, 256, s, max_probe_world=4)
            assert r is not None and r.mode == "model" and r.dp_factor == 4
            sim = simulate_candidate(cl, WORK, cand, 256, s.compute_seconds)
            assert r.step_seconds == pytest.approx(sim, rel=0.10)

    def test_probe_scale_never_exceeds_budget(self):
        for cand in enumerate_candidates(WORK, 128, 16):
            scale = probe_scale(cand, 8)
            if scale is None:
                assert cand.tensor * cand.pipeline > 8
                continue
            probe_data, factor = scale
            assert probe_data * factor == cand.data
            assert probe_data * cand.tensor * cand.pipeline <= 8

    def test_compile_predicted_equals_simulation(self):
        """End to end: compile_strategy's predicted step time is the
        simulator's step time for the winning plan, exactly."""
        cl = uniform_cluster(8)
        cs = compile_strategy(cl, WORK, 128, top_k=3)
        assert cs.refined is not None and cs.refined.mode == "recorded"
        sim = simulate_candidate(cl, WORK, cs.candidate, 128,
                                 cs.score.compute_seconds)
        assert cs.predicted_step_seconds == sim


# -- Fig 11: hardware-dependent mode switch ---------------------------------


class TestFig11ModeSwitch:
    """System I (uniform NVLink) prefers 1D at tensor=4; System II
    (pairwise NVLink + PCIe) flips to 2D — in both the analytic stage and
    the projector-refined estimate."""

    def _mode_times(self, cluster, refine):
        times = {}
        cache = _CostCache(cluster)
        for mode in ("1d", "2d"):
            cand = StrategyCandidate(data=2, tensor=4, mode=mode,
                                     pipeline=1, algorithm="auto")
            s = score_candidate(cluster, FIG11_WORK, cand, 256, cache)
            assert s.feasible
            if refine:
                r = refine_candidate(cluster, FIG11_WORK, cand, 256, s)
                times[mode] = r.step_seconds
            else:
                times[mode] = s.step_seconds
        return times

    @pytest.mark.parametrize("refine", [False, True])
    def test_system_i_prefers_1d(self, refine):
        t = self._mode_times(system_i(), refine)
        assert t["1d"] < t["2d"]

    @pytest.mark.parametrize("refine", [False, True])
    def test_system_ii_prefers_2d(self, refine):
        t = self._mode_times(system_ii(), refine)
        assert t["2d"] < t["1d"]


# -- ZeRO memory feasibility (regression) -----------------------------------


class TestAdvisorZeroFeasibility:
    """Memory priced ZeRO-free rejects configurations the paper runs; a
    candidate's ZeRO stage partitions the partitionable slice of its model
    data across the DP group."""

    # ~1.2e9 params: 16 B/param model data (19.3 GiB) exceeds a 16 GiB
    # device ZeRO-free, but ZeRO-2 over dp=8 partitions it to ~4.5 GiB
    BIG = Workload(n_layers=24, hidden=2048, n_heads=16, seq_len=128)

    def test_previously_rejected_plan_now_feasible(self):
        cl = uniform_cluster(8, memory_gb=16)
        without, with_zero = (
            score_candidate(cl, self.BIG, StrategyCandidate(
                data=8, tensor=1, mode="1d", pipeline=1, zero_stage=stage), 64)
            for stage in (0, 2))
        assert not without.feasible
        assert with_zero.feasible
        assert "zero2" in with_zero.notes
        assert with_zero.memory_bytes < without.memory_bytes

    def test_compiler_exploits_zero_feasibility(self):
        """The compiler reaches plans that are only feasible under ZeRO."""
        cl = uniform_cluster(8, memory_gb=16)
        cs = compile_strategy(cl, self.BIG, 64, refine=False)
        zero_free = [
            s for s in cs.report.scored
            if s.candidate == cs.candidate and s.feasible
        ]
        assert zero_free  # the chosen plan is in the report
        # the dp8/tp1/pp1 decomposition is infeasible at zero_stage=0
        flat = [
            s for s in cs.report.scored
            if s.candidate.data == 8 and s.candidate.zero_stage == 0
            and s.candidate.pipeline == 1 and s.candidate.tensor == 1
        ]
        assert flat and all(not s.feasible for s in flat)


# -- launch wiring ----------------------------------------------------------


class TestLaunchWiring:
    def test_launch_compiles_and_runs(self):
        cl = uniform_cluster(4, memory_gb=16)
        cfg = dict(
            autopar=dict(
                workload=dict(n_layers=4, hidden=256, n_heads=4, seq_len=64),
                global_batch=32,
                refine=False,
            ),
        )

        def fn(ctx, pc):
            return (pc.data_size, pc.tensor_size, pc.pipeline_size)

        results = launch(cfg, cl, fn, world_size=4, materialize=False)
        assert len(results) == 4
        d, t, p = results[0]
        assert d * t * p == 4
        assert all(r == results[0] for r in results)

    def test_initialize_selects_1f1b_schedule(self):
        import numpy as np

        from repro.engine import initialize
        from repro.nn import Linear
        from repro.optim import Adam

        cl = uniform_cluster(2, memory_gb=16)
        cfg = dict(parallel=dict(pipeline=2), num_microbatches=2,
                   pipeline_schedule="1f1b")

        def fn(ctx, pc):
            model = Linear(4, 4, rng=np.random.default_rng(1))
            engine = initialize(model, Adam(model.parameters()), pc=pc)
            return type(engine.schedule).__name__

        results = launch(cfg, cl, fn, world_size=2)
        assert results == ["OneFOneBSchedule"] * 2


# -- the launched step (DESIGN §4ae) -----------------------------------------


class TestLaunchedStep:
    """``launched_step``'s forward + backward is the bare stack's, with no
    ``initialize`` or ``Adam``, checkpointed or not, in every tensor mode; a
    pipeline is refused by name, by ``launched_step`` and by each rank of
    ``launched_program``."""

    WORK = Workload(n_layers=2, hidden=16, n_heads=4, seq_len=8)

    @pytest.mark.parametrize("checkpoint", [False, True], ids=["plain", "checkpoint"])
    @pytest.mark.parametrize("tensor", [
        dict(size=2, mode="1d"), dict(size=4, mode="2d"), dict(size=8, mode="2.5d", depth=2),
        dict(size=8, mode="3d")], ids=lambda t: t["mode"])
    def test_forward_backward_is_the_bare_stack(self, tensor, checkpoint):
        w, config, size = self.WORK, dict(parallel=dict(tensor=tensor)), tensor["size"]

        def bare(ctx, pc):
            mode = tensor_mode(pc)
            stack = Sequential([TransformerLayer(w.hidden, w.n_heads, dtype="float16", mode=mode)
                                for _ in range(w.n_layers)], checkpoint=checkpoint)
            x = Tensor(SpecArray(mode.local_shape(8, w.seq_len, w.hidden), "float16"),
                       requires_grad=True)
            t0 = ctx.clock.time
            stack(x).sum().backward()
            return ctx.clock.time - t0

        fwd_bwd, step, _ = launched_step(uniform_cluster(size), w, 8, config, world_size=size,
                                         checkpoint=checkpoint)
        assert fwd_bwd == max(launch(config, uniform_cluster(size), bare, materialize=False)) < step

    def test_a_pipeline_is_refused_by_name(self):
        config = dict(parallel=dict(pipeline=2))
        with pytest.raises(ConfigError, match=r"^parallel\.pipeline"):
            launched_step(uniform_cluster(2), self.WORK, 8, config, world_size=2)
        with pytest.raises(RemoteRankError, match=r"raised ConfigError: parallel\.pipeline"):
            launch(config, uniform_cluster(2), launched_program(self.WORK, 8), materialize=False)


# -- the search offers what initialize builds (ROADMAP item 22) -------------


#: the three ``plan_golden`` compiles and the one that used to emit ZeRO-3:
#: (cluster factory, workload, global batch, world)
_BUILT_COMPILES = {
    "system_i": (system_i, FIG11_WORK, 256, 8),
    "system_ii": (system_ii, FIG11_WORK, 256, 8),
    "system_iv": (system_iv, FIG11_WORK, 512, 64),
    "wide_i": (system_i, Workload(48, 6144, 48, 196), 64, 8),
}
def _initialize_class(cand: StrategyCandidate, work: Workload) -> str:
    """The fields of a candidate ``initialize`` reads, named."""
    return " x ".join(filter(None, (
        f"zero{cand.zero_stage}",
        "overlap" if cand.overlap else "",
        "dp" if cand.data > 1 else "",
        "mp" if cand.tensor * cand.pipeline > 1 else "",
        "fp16" if work.bytes_per_elem == 2 else "",
    )))


def _initialize_launch(config, cluster, world):
    """``launch`` + ``initialize`` of ``config`` in spec mode, on a tiny
    model: per rank, the type of the engine's model."""
    import numpy as np

    from repro.engine import initialize
    from repro.nn import Linear
    from repro.optim import Adam

    def fn(ctx, pc):
        model = Linear(4, 4, rng=np.random.default_rng(1))
        return type(initialize(model, Adam(model.parameters()), pc=pc).model).__name__

    return launch(config, cluster, fn, world_size=world, materialize=False)


class TestSearchBuildsWhatInitializeBuilds:
    """Every candidate the compiler scores is a config ``initialize``
    builds: no ZeRO-3, overlap only where it wraps DDP or the ZeRO chunks'
    hooks, and every class of the fields ``initialize`` reads launches."""

    @pytest.mark.parametrize("label", sorted(_BUILT_COMPILES))
    def test_candidates_are_stages_and_overlaps_initialize_builds(self, label):
        _mk, work, batch, world = _BUILT_COMPILES[label]
        for cand in enumerate_candidates(work, batch, world):
            assert cand.zero_stage in ZERO_STAGES
            if cand.overlap:
                assert cand.data > 1 and cand.tensor == cand.pipeline == 1, (
                    cand.describe())

    def test_every_class_initialize_reads_builds(self):
        classes = {}
        for mk, work, batch, world in _BUILT_COMPILES.values():
            for cand in enumerate_candidates(work, batch, world):
                classes.setdefault(_initialize_class(cand, work), (mk, work, cand))
        refused = set()
        for name, (mk, work, cand) in sorted(classes.items()):
            try:
                _initialize_launch(cand.to_config_dict(work), mk(), cand.world)
            except (ConfigError, RemoteRankError) as e:
                assert isinstance(e.__cause__ or e, ConfigError), e
                refused.add(name)
        assert len(classes) > 8 and not refused, (sorted(classes), refused)

    def test_the_wide_system_i_plan_launches(self):
        mk, work, batch, world = _BUILT_COMPILES["wide_i"]
        cs = compile_strategy(mk(), work, batch, world_size=world, refine=False)
        assert cs.candidate.zero_stage in ZERO_STAGES
        assert set(_initialize_launch(cs.config, mk(), world)) == {"Linear"}
