"""Candidate space of the auto-parallel strategy compiler.

A :class:`StrategyCandidate` is one fully-specified point in the
configuration space the paper's follow-up work targets:

    DP degree x TP mode (1D/2D/2.5D/3D/sequence) x PP stages/schedule
    (GPipe/1F1B) x microbatch count x ZeRO stage x comm/compute overlap
    x collective algorithm (ring/tree/hierarchical/auto)

:func:`enumerate_candidates` walks every structurally valid decomposition
``world = data x tensor x pipeline`` (each tensor mode's topology
constraint enforced: 2D square, 2.5D ``d*q^2``, 3D cubic), crossed with
the :class:`SearchSpace` knobs.  Structural validity is cheap and checked
here; *feasibility* (memory) and *quality* (step time) are the scoring
stage's job (:mod:`repro.autopar.scoring`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.analytic.memory_model import transformer_param_count
from repro.config import (
    COMM_ALGORITHMS, PIPELINE_SCHEDULES, TENSOR_MODES, ZERO_STAGES,
)

#: :class:`SearchSpace` field -> (what it holds, the values it may hold)
_CHOICES: Dict[str, Tuple[str, Tuple[Any, ...]]] = {
    "tensor_modes": (
        "tensor mode", tuple(m for m in TENSOR_MODES if m != "none")),
    "schedules": ("pipeline schedule", PIPELINE_SCHEDULES),
    "zero_stages": ("ZeRO stage", ZERO_STAGES),
    "overlap_options": ("overlap option", (False, True)),
    "algorithms": ("comm algorithm", COMM_ALGORITHMS),
}


@dataclass(frozen=True)
class Workload:
    """A Transformer training workload."""

    n_layers: int
    hidden: int
    n_heads: int
    seq_len: int
    mlp_ratio: int = 4
    bytes_per_elem: int = 2  # fp16

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(
                    f"{f.name} must be >= 1, got {getattr(self, f.name)}")
        if self.hidden % self.n_heads:
            raise ValueError(
                f"hidden {self.hidden} not divisible by n_heads {self.n_heads}")

    @functools.cached_property
    def params(self) -> int:
        """Parameters of the layer stack (no embeddings): a function of
        the workload alone, so it is counted once per workload rather
        than once per candidate priced against it."""
        return transformer_param_count(
            self.n_layers, self.hidden, mlp_ratio=self.mlp_ratio
        )


@dataclass(frozen=True)
class StrategyCandidate:
    """One point of the compiler's search space.

    ``data * tensor * pipeline`` must equal the target world size; the
    remaining fields pick the execution strategy on that decomposition.
    """

    data: int
    tensor: int
    mode: str  # "1d" | "2d" | "2.5d" | "3d" | "sequence" ("none" iff tensor == 1)
    pipeline: int
    depth: int = 1  # 2.5d only
    schedule: str = "gpipe"  # "gpipe" | "1f1b"
    microbatches: int = 1
    zero_stage: int = 0
    overlap: bool = False
    algorithm: str = "ring"  # "ring" | "tree" | "hierarchical" | "auto"

    @property
    def world(self) -> int:
        return self.data * self.tensor * self.pipeline

    def describe(self) -> str:
        t = f"{self.mode}x{self.tensor}" if self.tensor > 1 else "tp1"
        if self.mode == "2.5d":
            t += f"(d={self.depth})"
        parts = [f"dp{self.data}", t, f"pp{self.pipeline}"]
        if self.pipeline > 1:
            parts.append(f"{self.schedule}/m{self.microbatches}")
        elif self.microbatches > 1:
            parts.append(f"m{self.microbatches}")
        if self.zero_stage:
            parts.append(f"zero{self.zero_stage}")
        if self.overlap:
            parts.append("overlap")
        parts.append(self.algorithm)
        return " * ".join(parts[:3]) + " [" + ", ".join(parts[3:]) + "]"

    def sort_key(self) -> Tuple:
        """Total deterministic order over candidates (ties in scores are
        broken by this key, so search results never depend on enumeration
        or hash order)."""
        return (
            self.data, self.tensor, self.mode, self.depth, self.pipeline,
            self.schedule, self.microbatches, self.zero_stage,
            self.overlap, self.algorithm,
        )

    def to_config_dict(self, work: Workload) -> Dict[str, Any]:
        """The ready-to-run ``repro.launch`` config this candidate denotes
        (the ``colossalai.initialize`` idiom: declarative ``parallel`` /
        ``zero`` / ``fp16`` / ``comm`` sections)."""
        d: Dict[str, Any] = {
            "parallel": {
                "tensor": {
                    "size": self.tensor,
                    "mode": self.mode if self.tensor > 1 else "none",
                    **({"depth": self.depth} if self.mode == "2.5d" else {}),
                },
                "pipeline": self.pipeline,
                "data": self.data,
            },
            "num_microbatches": self.microbatches,
            "comm": {"algorithm": self.algorithm, "overlap": self.overlap},
        }
        if self.pipeline > 1:
            d["pipeline_schedule"] = self.schedule
        if self.zero_stage:
            d["zero"] = {"stage": self.zero_stage}
        if work.bytes_per_elem == 2:
            d["fp16"] = {"enabled": True}
        return d


@dataclass(frozen=True)
class SearchSpace:
    """Which strategy dimensions the compiler sweeps.

    Defaults cover the paper grid as far as ``initialize`` builds it.  A
    smaller space scores fewer candidates but can change the plan: only
    the ``top_k`` best scores are refined, so dropping values that filled
    the shortlist lets other layouts into it (``algorithms=("auto",)``
    moves every ``plan_golden`` plan)."""

    tensor_modes: Tuple[str, ...] = ("1d", "2d", "2.5d", "3d", "sequence")
    schedules: Tuple[str, ...] = PIPELINE_SCHEDULES
    microbatch_options: Tuple[int, ...] = (1, 2, 4, 8)
    zero_stages: Tuple[int, ...] = ZERO_STAGES
    overlap_options: Tuple[bool, ...] = (False, True)
    algorithms: Tuple[str, ...] = ("ring", "auto")

    def validate(self) -> None:
        """Every dimension must hold at least one value and only values the
        enumeration understands: a typo or an empty tuple would otherwise
        silently drop candidates (every pipelined one, every DP > 1 one)
        or surface as "no structurally valid candidates"."""
        for name, (what, valid) in _CHOICES.items():
            chosen = getattr(self, name)
            # by type too: 0/1 are not overlap options, True is no ZeRO stage
            known = {(type(v), v) for v in valid}
            bad = [v for v in chosen if (type(v), v) not in known]
            if bad or not chosen:
                raise ValueError(
                    f"SearchSpace.{name}: "
                    + (f"unknown {what}(s) {bad}" if bad else "empty")
                    + f"; valid: {valid}"
                )
        bad = [
            m for m in self.microbatch_options
            if type(m) is not int or m < 1
        ]
        if bad or not self.microbatch_options:
            raise ValueError(
                "SearchSpace.microbatch_options: "
                + (f"invalid microbatch count(s) {bad}" if bad else "empty")
                + "; valid: ints >= 1"
            )


def _tensor_modes(size: int) -> List[Tuple[str, int]]:
    """Valid (mode, depth) choices for a tensor group of ``size``."""
    if size == 1:
        return [("1d", 1)]
    modes: List[Tuple[str, int]] = [("1d", 1)]
    j = math.isqrt(size)
    if j * j == size:
        modes.append(("2d", 1))
    for d in range(1, size + 1):
        if size % d:
            continue
        k = math.isqrt(size // d)
        if k * k * d == size and d > 1 and k >= 2:
            modes.append(("2.5d", d))
    l = round(size ** (1 / 3))
    if l**3 == size and l >= 2:
        modes.append(("3d", 1))
    return modes


def _divisors(n: int) -> List[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def enumerate_candidates(
    work: Workload,
    global_batch: int,
    world: int,
    space: SearchSpace = SearchSpace(),
) -> Iterator[StrategyCandidate]:
    """Every structurally valid candidate for ``world`` ranks, in a fixed
    deterministic order.

    Structural constraints applied here (cheap, no cost model):

    * ``data * tensor * pipeline == world`` with each tensor mode's rank
      count constraint (:func:`_tensor_modes`);
    * 1D/sequence modes need ``n_heads % tensor == 0``;
    * ``pipeline <= n_layers`` (a stage must own at least one layer);
    * ``global_batch`` divisible by ``data * microbatches`` (equal
      microbatches on every replica);
    * microbatching/1F1B only meaningful with ``pipeline > 1``; ZeRO only
      with ``data > 1``; overlap only on pure data parallelism (``data > 1``,
      ``tensor == pipeline == 1``), the one layout ``initialize`` wraps in
      an overlapping DDP.
    """
    space.validate()
    for tensor in _divisors(world):
        modes = [
            (m, d) for m, d in _tensor_modes(tensor) if m in space.tensor_modes
        ]
        if tensor > 1 and "sequence" in space.tensor_modes:
            modes.append(("sequence", 1))
        if not modes:
            continue
        for pipeline in _divisors(world // tensor):
            data = world // (tensor * pipeline)
            if pipeline > work.n_layers:
                continue
            schedules = space.schedules if pipeline > 1 else ("gpipe",)
            micro_opts = space.microbatch_options if pipeline > 1 else (1,)
            zero_opts = space.zero_stages if data > 1 else (0,)
            # initialize wraps DDP overlap on pure data parallelism only
            pure_dp = data > 1 and tensor == pipeline == 1
            overlap_opts = space.overlap_options if pure_dp else (False,)
            for mode, depth in modes:
                if mode in ("1d", "sequence") and work.n_heads % tensor:
                    continue
                if mode == "sequence" and work.seq_len % tensor:
                    continue
                for schedule in schedules:
                    for micro in micro_opts:
                        if global_batch % (data * micro):
                            continue
                        for zero in zero_opts:
                            for overlap in overlap_opts:
                                for algo in space.algorithms:
                                    yield StrategyCandidate(
                                        data=data,
                                        tensor=tensor,
                                        mode=mode if tensor > 1 else "1d",
                                        pipeline=pipeline,
                                        depth=depth,
                                        schedule=schedule,
                                        microbatches=micro,
                                        zero_stage=zero,
                                        overlap=overlap,
                                        algorithm=algo,
                                    )
