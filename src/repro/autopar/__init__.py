"""Automatic parallelization (§3.3 + §6 future work of the paper).

Two pieces:

* :mod:`repro.autopar.conversion` — sharded-layout conversion search.  The
  paper improves on Alpa's hardcoded conversion table with "a greedy
  algorithm to search to speed up sharding conversion and increase the
  number of sharding dimensions"; we implement the conversion planner as a
  best-first (Dijkstra) search over layout states whose edges are the
  collective conversion primitives (all-gather a mesh axis off a dim,
  slice a dim onto an axis, all-to-all an axis between dims), costed by
  the cluster's communication model.

* :mod:`repro.autopar.compiler` — the hardware-aware strategy search the
  paper lists as future work: cost-driven search over DP x TP mode x PP
  schedule x ZeRO stage x overlap x collective algorithm for a
  Transformer workload (:mod:`~repro.autopar.search`), analytic pruning
  over the *actual* topology with per-candidate rejection reasons
  (:mod:`~repro.autopar.scoring`), projector-based refinement of the
  shortlist via simulated skeleton probes (:mod:`~repro.autopar.probe`),
  emitting a ready-to-run :class:`repro.config.Config`.
"""

from repro.autopar.conversion import (
    ConversionPlan,
    ConversionStep,
    Layout,
    convert_payload,
    plan_conversion,
)
from repro.autopar.compiler import (
    CompiledStrategy,
    RefinedEstimate,
    StrategyReport,
    compile_strategy,
    refine_candidate,
    simulate_candidate,
)
from repro.autopar.scoring import CandidateScore, score_candidate
from repro.autopar.search import (
    SearchSpace,
    StrategyCandidate,
    Workload,
    enumerate_candidates,
)

__all__ = [
    "Layout",
    "ConversionStep",
    "ConversionPlan",
    "plan_conversion",
    "convert_payload",
    "Workload",
    "StrategyCandidate",
    "SearchSpace",
    "enumerate_candidates",
    "CandidateScore",
    "score_candidate",
    "CompiledStrategy",
    "RefinedEstimate",
    "StrategyReport",
    "compile_strategy",
    "refine_candidate",
    "simulate_candidate",
]
