"""The auto-parallel strategy compiler: cost-driven two-stage search.

``compile_strategy(cluster, workload)`` turns a model description into a
ready-to-run parallelization:

1. **Enumerate** every structurally valid point of DP degree x TP mode
   (1D/2D/2.5D/3D/sequence) x PP stages/schedule x microbatch count x
   ZeRO stage x overlap x collective algorithm
   (:func:`repro.autopar.search.enumerate_candidates`).
2. **Prune analytically**: closed-form memory feasibility and step-time
   scoring (:func:`repro.autopar.scoring.score_candidate`) — thousands of
   candidates per second, every rejection recorded with its reason.
3. **Refine by projection**: the ``top_k`` survivors each run as a
   *skeleton probe* (:mod:`repro.autopar.probe`) on the threaded
   simulator, captured (:func:`repro.project.capture_run`) and priced by
   :func:`repro.project.price_plan` — in recorded mode (bit-for-bit equal
   to the threaded run) when the target world fits under
   ``max_probe_world``, else captured at a reduced data-parallel degree
   and projected model-mode to the full scale.
4. **Emit** the winner as a validated :class:`repro.config.Config` dict
   consumable by :func:`repro.launch` / ``initialize``.

The two stages exist because they fail differently: the analytic stage is
fast but approximates contention and overlap; the simulator executes the
real collective schedules on the real topology.  Refinement re-ranks the
shortlist with simulator-grade fidelity while the analytic stage keeps the
search space tractable.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.analytic.memory_model import zero_partitioned_bytes
from repro.autopar.probe import build_probe
from repro.autopar.scoring import (
    CandidateScore,
    _CostCache,
    local_params,
    score_candidate,
)
from repro.autopar.search import (
    SearchSpace,
    StrategyCandidate,
    Workload,
    enumerate_candidates,
)
from repro.cluster.machine import ClusterSpec
from repro.config import AutoParConfig, Config

_STEP_SECONDS = attrgetter("step_seconds")


def _best(scored: List[CandidateScore], k: int) -> List[CandidateScore]:
    """The ``k`` fastest feasible scores, ties broken on
    :meth:`StrategyCandidate.sort_key`.  Thousands of scores are ordered
    on the float alone (a C-level key: no Python frame per candidate);
    the tuple key only ranks those that can still make the cut."""
    feasible = sorted([s for s in scored if s.feasible], key=_STEP_SECONDS)
    if not feasible:
        return []
    cutoff = feasible[min(k, len(feasible)) - 1].step_seconds
    head = feasible[:bisect_right(feasible, cutoff, key=_STEP_SECONDS)]
    head.sort(key=lambda s: (s.step_seconds, s.candidate.sort_key()))
    return head[:k]


@dataclass
class RefinedEstimate:
    """Projector-refined step time for one shortlisted candidate."""

    step_seconds: float
    mode: str  # "recorded" | "model"
    probe_world: int
    dp_factor: int
    report: Any  # ProjectionReport


@dataclass
class StrategyReport:
    """Full per-candidate account of one compile: every enumerated
    candidate's analytic score (with the rejection reason for infeasible
    ones) and the refined shortlist."""

    world: int
    global_batch: int
    scored: List[CandidateScore]
    shortlist: List[Tuple[CandidateScore, Optional[RefinedEstimate]]]
    #: set once the shortlist has been refined
    chosen: Optional[StrategyCandidate] = None

    def rejection_counts(self) -> Dict[str, int]:
        """Infeasible candidates bucketed by the leading words of their
        rejection reason."""
        counts: Dict[str, int] = {}
        for s in self.scored:
            if not s.feasible:
                key = s.reason.split(":")[0]
                counts[key] = counts.get(key, 0) + 1
        return counts

    def format(self, limit: int = 12) -> str:
        n_feasible = sum(1 for s in self.scored if s.feasible)
        lines = [
            f"strategy compile @ world={self.world} "
            f"global_batch={self.global_batch}: "
            f"{len(self.scored)} candidates, {n_feasible} feasible",
        ]
        for reason, n in sorted(self.rejection_counts().items()):
            lines.append(f"  rejected {n}: {reason}")
        lines.append("  shortlist (analytic -> refined):")
        for s, r in self.shortlist:
            mark = " <==" if s.candidate == self.chosen else ""
            ref = (
                f"{r.step_seconds * 1e3:9.3f} ms [{r.mode}"
                + (f" x{r.dp_factor} dp" if r.dp_factor > 1 else "")
                + "]"
                if r is not None else "   (analytic only)"
            )
            lines.append(
                f"    {s.step_seconds * 1e3:9.3f} ms -> {ref}  "
                f"{s.candidate.describe()}{mark}"
            )
        shown = {s.candidate for s, _ in self.shortlist}
        ranked = _best(self.scored, limit + len(shown))
        rest = [s for s in ranked if s.candidate not in shown][: limit]
        if rest:
            lines.append("  next best (analytic):")
            for s in rest:
                lines.append(
                    f"    {s.step_seconds * 1e3:9.3f} ms  "
                    f"{s.candidate.describe()}"
                )
        return "\n".join(lines)


#: the config sections a compiled plan decides whole (``fp16`` it decides
#: only ``enabled`` of)
_PLAN_SECTIONS = ("parallel", "num_microbatches", "pipeline_schedule", "zero", "comm")


@dataclass
class CompiledStrategy:
    """Result of :func:`compile_strategy`: the winning candidate, its
    emitted launch config, and the full scoring report."""

    candidate: StrategyCandidate
    config: Dict[str, Any]
    score: CandidateScore
    refined: Optional[RefinedEstimate]
    report: StrategyReport

    @property
    def predicted_step_seconds(self) -> float:
        """The compiler's best estimate of the chosen plan's step time:
        the projector-refined value when refinement ran, else analytic."""
        if self.refined is not None:
            return self.refined.step_seconds
        return self.score.step_seconds

    def apply_to(self, cfg: Config) -> Config:
        """A copy of ``cfg`` with this strategy's :attr:`config` merged in
        section by section: every setting the plan decides (parallel
        layout, microbatches, schedule, ZeRO stage, comm knobs, and fp16
        on or off by the workload's element size) reads as in
        ``Config.from_dict(self.config)``, defaults included; everything it
        does not — seed, sanitize, fp16 scaling knobs, gradient clipping —
        carries over.  The ``autopar`` section is consumed (disabled) so
        the result launches directly."""
        plan = Config.from_dict(self.config).to_dict()
        merged = cfg.to_dict()
        for key in _PLAN_SECTIONS:
            merged[key] = plan[key]
        merged["fp16"]["enabled"] = plan["fp16"]["enabled"]
        merged["autopar"] = {}
        return Config.from_dict(merged)


def probe_scale(
    cand: StrategyCandidate, max_probe_world: int
) -> Optional[Tuple[int, int]]:
    """``(probe_data, dp_factor)`` for capturing this candidate under the
    probe budget: the largest divisor of its DP degree that keeps the
    probe world within ``max_probe_world`` (TP x PP are never reduced —
    their topology is the point of the probe).  ``None`` when even one
    data-parallel replica exceeds the budget."""
    mp = cand.tensor * cand.pipeline
    if mp > max_probe_world:
        return None
    best = 1
    for d in range(1, cand.data + 1):
        if cand.data % d == 0 and d * mp <= max_probe_world:
            best = d
    return best, cand.data // best


def refine_candidate(
    cluster: ClusterSpec,
    work: Workload,
    cand: StrategyCandidate,
    global_batch: int,
    score: CandidateScore,
    max_probe_world: int = 16,
) -> Optional[RefinedEstimate]:
    """Run the candidate's skeleton probe on the simulator and price it at
    the candidate's full scale.

    At ``dp_factor == 1`` the probe runs at the real world size and the
    recorded replay reproduces the threaded run's step time bit-for-bit;
    otherwise the capture runs at a reduced DP degree (same per-replica
    batch) and model-mode projection widens the data-parallel axis."""
    from repro.project import capture_run, price_plan

    scale = probe_scale(cand, max_probe_world)
    if scale is None:
        return None
    probe_data, dp_factor = scale
    probe_cand = replace(cand, data=probe_data)
    probe_batch = global_batch * probe_data // cand.data
    cfg, fn = build_probe(work, probe_cand, probe_batch,
                          score.compute_seconds)
    _results, trace = capture_run(
        cluster,
        fn,
        world_size=probe_cand.world,
        materialize=False,
        comm_algorithm=cand.algorithm,
    )
    # spec-mode probes never touch the memory pools: give the projection
    # the analytic per-rank peak, declaring the ZeRO-partitionable slice
    # so dp widening shrinks it
    trace.peak_memory = [score.memory_bytes] * probe_cand.world
    sharded = None
    if cand.zero_stage and dp_factor > 1:
        part = zero_partitioned_bytes(
            local_params(work, cand), stage=cand.zero_stage
        )
        sharded = {"dp": part // probe_data}
    report = price_plan(
        trace,
        axes={"dp": dp_factor} if dp_factor > 1 else None,
        tensor=cand.tensor,
        pipeline=cand.pipeline,
        sharded_bytes=sharded,
    )
    return RefinedEstimate(
        step_seconds=report.step_time,
        mode="recorded" if dp_factor == 1 else "model",
        probe_world=probe_cand.world,
        dp_factor=dp_factor,
        report=report,
    )


def simulate_candidate(
    cluster: ClusterSpec,
    work: Workload,
    cand: StrategyCandidate,
    global_batch: int,
    compute_seconds: Optional[float] = None,
) -> float:
    """Step time of the candidate's skeleton probe on the *threaded*
    simulator at the full world size — the independent ground truth the
    parity tests compare :func:`refine_candidate` against."""
    from repro.runtime.spmd import SpmdRuntime

    if compute_seconds is None:
        # the memory + compute terms alone: nothing else of a score is read
        compute_seconds = _CostCache(cluster).footprint(
            work, cand, global_batch
        )[-1]
    _cfg, fn = build_probe(work, cand, global_batch, compute_seconds)
    cluster.reset()
    rt = SpmdRuntime(cluster, cand.world, comm_algorithm=cand.algorithm)
    rt.run(fn, materialize=False)
    return rt.max_time()


def compile_strategy(
    cluster: ClusterSpec,
    workload: Union[Workload, Dict[str, Any]],
    global_batch: Optional[int] = None,
    *,
    world_size: Optional[int] = None,
    space: Optional[SearchSpace] = None,
    top_k: int = 4,
    refine: bool = True,
    max_probe_world: int = 16,
) -> CompiledStrategy:
    """Compile the best parallel strategy for ``workload`` on ``cluster``.

    Deterministic: candidate enumeration order is fixed, all scoring is
    closed-form or simulated on deterministic clocks, and every tie breaks
    on :meth:`StrategyCandidate.sort_key`.  Raises ``ValueError`` on an
    argument the ``autopar`` config section would reject or a workload
    dimension below 1 (before anything is scored) and when no candidate
    fits device memory (the rejection census is in the message)."""
    AutoParConfig(global_batch=global_batch, top_k=top_k, refine=refine,
                  max_probe_world=max_probe_world).validate()
    work = workload if isinstance(workload, Workload) else Workload(**workload)
    world = world_size or cluster.world_size
    batch = global_batch if global_batch is not None else 8 * world
    space = space or SearchSpace()
    cache = _CostCache(cluster)

    scored = [
        score_candidate(cluster, work, cand, batch, cache)
        for cand in enumerate_candidates(work, batch, world, space)
    ]
    if not scored:
        raise ValueError(
            f"no structurally valid candidates for world={world}, "
            f"global_batch={batch} (check divisibility of batch and heads)"
        )
    shortlist: List[Tuple[CandidateScore, Optional[RefinedEstimate]]] = []
    report = StrategyReport(
        world=world, global_batch=batch, scored=scored, shortlist=shortlist
    )
    feasible = _best(scored, top_k)
    if not feasible:
        raise ValueError(
            f"no feasible candidate fits device memory: "
            f"{len(scored)} candidates rejected ({report.rejection_counts()})"
        )

    for s in feasible:
        r = None
        if refine:
            r = refine_candidate(
                cluster, work, s.candidate, batch, s,
                max_probe_world=max_probe_world,
            )
        shortlist.append((s, r))

    def final_key(entry):
        s, r = entry
        t = r.step_seconds if r is not None else s.step_seconds
        return (t, s.candidate.sort_key())

    best_score, best_refined = min(shortlist, key=final_key)
    chosen = report.chosen = best_score.candidate
    config = chosen.to_config_dict(work)
    Config.from_dict(dict(config))  # emitted configs always validate
    return CompiledStrategy(
        candidate=chosen,
        config=config,
        score=best_score,
        refined=best_refined,
        report=report,
    )
