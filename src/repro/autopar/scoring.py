"""Analytic scoring stage of the strategy compiler (fast pruning).

Every enumerated :class:`~repro.autopar.search.StrategyCandidate` is priced
with the closed-form models (``repro.analytic`` + ``repro.comm.cost``)
before anything touches the simulator: memory feasibility (ZeRO-aware, via
:func:`~repro.analytic.memory_model.model_data_bytes_per_rank`), compute,
tensor-parallel traffic on the *actual* subgroup topologies (rows on
NVLink pairs vs columns over PCIe is what flips Fig 11), ZeRO-staged
gradient synchronization, overlap hiding and the pipeline bubble.

The communication *pattern* a candidate implies is materialized once as a
list of :class:`TpOp` / :class:`DpOp` records.  The analytic stage prices
those records with :class:`~repro.comm.cost.CostModel`; the probe stage
(:mod:`repro.autopar.probe`) *issues the very same records* as real
collectives on the simulator — one source of truth, two evaluators, which
is what makes the two-stage search comparable end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.analytic.commvolume import tp_comm_volume
from repro.analytic.memory_model import (
    model_data_bytes_per_rank,
    transformer_activation_bytes,
)
from repro.analytic.perf_model import overlap_exposed_seconds
from repro.autopar.search import StrategyCandidate, Workload
from repro.cluster.machine import ClusterSpec
from repro.comm.cost import OP_PRICE, CostModel
from repro.context.parallel_context import ParallelMode, rank_groups
from repro.parallel.pipeline.schedule import bubble_fraction, pipeline_order

#: the (activation, weight) families of each multi-dimensional mode: rows on
#: consecutive ranks, columns strided (the placement Fig 11 turns on)
_ROW_COL = {
    "2d": (ParallelMode.PARALLEL_2D_ROW, ParallelMode.PARALLEL_2D_COL),
    "2.5d": (ParallelMode.PARALLEL_2P5D_ROW, ParallelMode.PARALLEL_2P5D_COL),
    "3d": (ParallelMode.PARALLEL_3D_INPUT, ParallelMode.PARALLEL_3D_OUTPUT),
}

#: fraction of a step's compute that is backward work (the window overlap
#: schedulers can hide gradient traffic behind): bwd = 2x fwd flops
BACKWARD_FRACTION = 2.0 / 3.0


@dataclass(frozen=True)
class TpOp:
    """Aggregate tensor-parallel traffic one candidate issues per layer,
    per microbatch, per phase.

    ``group`` names a family of the tensor group (its groups are those of
    :func:`~repro.context.parallel_context.rank_groups`); ``nbytes`` is
    the *per-rank wire volume* on that family's links, derived from the
    Table-1 forms, which :mod:`repro.analytic.commvolume` states once
    (:func:`_tp_volume_per_layer`).  Both evaluators
    realize a record as one broadcast of ``nbytes`` over each subgroup —
    the wire bytes per bottleneck link are what the Fig-11 hardware
    argument turns on, not the op taxonomy, so a single collective kind
    keeps the analytic price and the simulated probe exactly comparable."""

    phase: str
    group: ParallelMode
    op: str  # "broadcast"
    nbytes: int


@dataclass(frozen=True)
class DpOp:
    """One data-parallel/ZeRO synchronization collective per step."""

    op: str  # "all_reduce" | "reduce_scatter" | "all_gather"
    elements: int


@dataclass
class CandidateScore:
    """Analytic estimate for one candidate, with the rejection reason when
    the candidate is infeasible (the compiler's observability contract:
    every enumerated candidate appears in the report with *why* it was
    dropped, never silently)."""

    candidate: StrategyCandidate
    feasible: bool
    reason: str = ""
    step_seconds: float = math.inf
    compute_seconds: float = 0.0
    tp_comm_seconds: float = 0.0
    dp_comm_seconds: float = 0.0  # exposed (after overlap hiding)
    dp_comm_raw_seconds: float = 0.0  # before overlap hiding
    bubble_fraction: float = 0.0
    memory_bytes: int = 0
    notes: str = ""


def micro_batch_size(cand: StrategyCandidate, global_batch: int) -> int:
    return max(global_batch // (cand.data * cand.microbatches), 1)


def local_layers(work: Workload, cand: StrategyCandidate) -> int:
    return math.ceil(work.n_layers / cand.pipeline)


def local_params(work: Workload, cand: StrategyCandidate) -> int:
    return max(work.params // (cand.tensor * cand.pipeline), 1)


def _tp_volume_per_layer(
    mode: str, tensor: int, depth: int, batch: int, seq: int, hidden: int, mlp: int
) -> Tuple[int, int]:
    """(activation wire elements, weight wire elements) per Transformer
    layer fwd+bwd: Table 1's total-wire forms
    (:func:`~repro.analytic.commvolume.tp_comm_volume`) on the summed sizes
    of the layer's four linears — QKV ``(h, 3h)``, out ``(h, h)``, MLP up
    ``(h, r h)`` and down ``(r h, h)`` — or, in 1D, of its two all-reduced
    blocks (attention, MLP), each one linear of ``S_X = b s h``."""
    if tensor == 1:
        return 0, 0
    bsh = batch * seq * hidden
    if mode == "1d":
        return tp_comm_volume(mode, tensor, 2 * bsh, 0, 0)
    return tp_comm_volume(
        mode, tensor,
        (3 + mlp) * bsh,  # inputs: h + h + h + r h
        (4 + 2 * mlp) * hidden * hidden,  # weights: 3h^2 + h^2 + r h^2 + r h^2
        (5 + mlp) * bsh,  # outputs: 3h + h + r h + h
        depth,
    )


def tp_layer_ops(
    work: Workload, cand: StrategyCandidate, micro_batch: int
) -> List[TpOp]:
    """The tensor-parallel traffic one Transformer layer moves for one
    microbatch under this candidate, as per-rank wire-byte records.

    Volumes come straight from the Table-1 forms
    (:func:`_tp_volume_per_layer`), split between the activation family
    (rows / the full 1D group) and the weight family
    (columns) and halved across fwd/bwd — so the probe and the analytic
    stage move byte-identical traffic on identical subgroups."""
    t, mode = cand.tensor, cand.mode
    if t == 1:
        return []
    ops: List[TpOp] = []
    if mode == "sequence":
        # ring self-attention: each rank circulates its k/v blocks around
        # the sequence group, (t-1) rounds of 2 blocks fwd and twice that
        # bwd; the replicated weights add one gradient all-reduce per step,
        # amortized here per layer/microbatch
        bsh = micro_batch * work.seq_len * work.hidden
        kv_rank = 6 * (t - 1) * bsh // t
        layer_params = work.params // work.n_layers  # no embeddings: exact
        wgt_rank = (
            2 * (t - 1) * layer_params // t // max(cand.microbatches, 1)
        )
        for phase, frac in (("fwd", 1), ("bwd", 2)):
            nb = max(kv_rank * frac // 3 * work.bytes_per_elem, 1)
            ops.append(TpOp(phase, ParallelMode.TENSOR, "broadcast", nb))
        ops.append(
            TpOp("bwd", ParallelMode.TENSOR, "broadcast",
                 max(wgt_rank * work.bytes_per_elem, 1))
        )
        return ops
    act_v, wgt_v = _tp_volume_per_layer(
        mode, t, cand.depth, micro_batch, work.seq_len, work.hidden,
        work.mlp_ratio,
    )
    act_rank = int(act_v * work.bytes_per_elem / t)
    wgt_rank = int(wgt_v * work.bytes_per_elem / t)
    act_group, wgt_group = _ROW_COL.get(mode, (ParallelMode.TENSOR, None))
    for phase in ("fwd", "bwd"):
        if act_rank:
            ops.append(TpOp(phase, act_group, "broadcast",
                            max(act_rank // 2, 1)))
        if wgt_rank:
            ops.append(TpOp(phase, wgt_group, "broadcast",
                            max(wgt_rank // 2, 1)))
    return ops


def dp_step_ops(work: Workload, cand: StrategyCandidate) -> List[DpOp]:
    """The data-parallel/ZeRO synchronization collectives one training step
    issues over the DP group (gradient elements of this rank's model
    shard)."""
    if cand.data <= 1:
        return []
    grad_elems = local_params(work, cand)
    if cand.zero_stage == 0:
        return [DpOp("all_reduce", grad_elems)]
    shard = max(grad_elems // cand.data, 1)
    return [DpOp("reduce_scatter", grad_elems), DpOp("all_gather", shard)]


class _CostCache(dict):
    """The term table of one compile: what a score is made of that
    candidates *share*, priced once (DESIGN 4m lists the terms).

    Keys are ``(term, *fields)`` and a miss prices the term from its key
    alone (``_<term>(*fields)``), so an entry cannot depend on a field its
    key leaves out.  Every term also reads the ``(work, global_batch)``
    the table is bound to; handed another pair, the table starts over.
    What is specific to a candidate stays in :func:`score_candidate`, in
    one expression order: a score is the same float whether its terms
    were hits or misses.  One :class:`CostModel` prices every algorithm
    (per-call override) through :data:`~repro.comm.cost.OP_PRICE`, the op
    table the model-mode replay reads, so ring and auto queries share its
    probe memo.
    """

    def __init__(self, cluster: ClusterSpec) -> None:
        super().__init__()
        self.device = cluster.gpus[0]
        self.model = CostModel(cluster)
        self.work: Optional[Workload] = None
        self.global_batch = 0

    def __missing__(self, key: Tuple) -> Any:
        value = self[key] = getattr(self, "_" + key[0])(*key[1:])
        return value

    def footprint(
        self, work: Workload, cand: StrategyCandidate, global_batch: int
    ) -> Tuple[int, int, int, bool, float]:
        """The memory and compute terms of one candidate: ``(micro-batch,
        model-data bytes, activation bytes, checkpointing?, compute
        seconds)``."""
        if work is not self.work or global_batch != self.global_batch:
            self.clear()
            self.work, self.global_batch = work, global_batch
        data, tensor, pipeline = cand.data, cand.tensor, cand.pipeline
        m = cand.microbatches
        mb, layers, params_local = self["shape", data, tensor, pipeline, m]
        model_bytes = self["model", params_local, data, cand.zero_stage]
        act_micro, ckpt_micro = self[
            "act", mb, tensor, cand.mode == "sequence", layers]
        live = self["live", cand.schedule, pipeline, m] if pipeline > 1 else 1
        act_plain = act_micro * live
        use_ckpt = model_bytes + act_plain > self.device.memory_capacity
        act_bytes = (
            ckpt_micro * live + act_micro // max(layers, 1)
            if use_ckpt else act_plain
        )
        compute_s = self["compute", data * tensor * pipeline, use_ckpt]
        return mb, model_bytes, act_bytes, use_ckpt, compute_s

    # -- the terms: each sees its key (and the bound workload) alone --------

    def _shape(self, data, tensor, pipeline, microbatches):
        """(micro-batch, local layers, local params)."""
        cand = StrategyCandidate(
            data, tensor, "1d", pipeline, microbatches=microbatches)
        return (micro_batch_size(cand, self.global_batch),
                local_layers(self.work, cand), local_params(self.work, cand))

    def _model(self, params_local, data, zero_stage):
        """ZeRO-partitioned model-data bytes."""
        return model_data_bytes_per_rank(
            params_local, data=data, zero_stage=zero_stage)

    def _act(self, micro_batch, tensor, sequence, layers):
        """(plain, checkpointed) activation bytes of one microbatch:
        sequence mode splits the sequence, the others shard the layer."""
        work = self.work
        args = (
            micro_batch, work.seq_len // (tensor if sequence else 1),
            work.hidden, work.n_heads, layers, work.mlp_ratio,
            work.bytes_per_elem,
        )
        shard = 1 if sequence else tensor
        return (transformer_activation_bytes(*args) // shard,
                transformer_activation_bytes(*args, checkpoint=True) // shard)

    def _compute(self, world, use_ckpt):
        """6 * params * tokens over the ranks (+ checkpoint re-forward)."""
        work = self.work
        flops_per_rank = 6.0 * work.params * (
            self.global_batch * work.seq_len) / world
        if use_ckpt:
            flops_per_rank *= 4.0 / 3.0
        return self.device.compute_seconds(flops_per_rank, "float16")

    def _live(self, kind, stages, microbatches):
        """Peak microbatches in flight: stage 0's order, walked."""
        live = peak = 0
        for step, _mb in pipeline_order(kind, 0, stages, microbatches):
            live += 1 if step == "F" else -1
            peak = max(peak, live)
        return peak

    def _tp(self, tensor, mode, depth, micro_batch, algorithm, microbatches):
        """One layer's op records for one microbatch — the exact records
        the probe issues — summed in the order they are issued."""
        cand = StrategyCandidate(
            1, tensor, mode, 1, depth=depth, microbatches=microbatches)
        total = 0.0
        for op in tp_layer_ops(self.work, cand, micro_batch):
            total += self[
                "record", tensor, mode, depth, op.group, op.op, op.nbytes,
                algorithm]
        return total

    def _record(self, tensor, mode, depth, group, op, nbytes, algorithm):
        """One record (fwd and bwd repeat theirs; weight records do not
        move with the micro-batch): its family's slowest subgroup."""
        price, model = OP_PRICE[op], self.model
        return max([
            price(model, sub, nbytes, algorithm).seconds
            for sub in rank_groups(tensor, tensor, 1, mode, depth)[group]
        ])

    def _hop(self, tensor, nbytes):
        """One pipeline boundary: rank 0 to the first rank of the next stage."""
        return self.model.p2p(0, tensor, nbytes).seconds

    def _dp(self, data, stride, zero_stage, algorithm):
        """The step's DP/ZeRO records over the first data-parallel group of
        the ParallelContext layout ``rank = dp*(pp*tp) + pp*tp + tp``,
        before overlap hiding (local params follow from the stride)."""
        cand = StrategyCandidate(data, stride, "1d", 1, zero_stage=zero_stage)
        ranks = list(range(0, data * stride, stride))
        total = 0.0
        for op in dp_step_ops(self.work, cand):
            total += OP_PRICE[op.op](
                self.model, ranks, op.elements * self.work.bytes_per_elem,
                algorithm).seconds
        return total


def score_candidate(
    cluster: ClusterSpec,
    work: Workload,
    cand: StrategyCandidate,
    global_batch: int,
    cache: Optional[_CostCache] = None,
) -> CandidateScore:
    """Price one candidate analytically; infeasible candidates come back
    with ``feasible=False`` and a human-readable ``reason``.

    ``cache`` is the term table a compile shares between its candidates
    (a fresh one when omitted: same score)."""
    if cache is None:
        cache = _CostCache(cluster)
    mb, model_bytes, act_bytes, use_ckpt, compute_s = cache.footprint(
        work, cand, global_batch
    )
    mem = model_bytes + act_bytes
    capacity = cache.device.memory_capacity
    if mem > capacity:
        return CandidateScore(
            candidate=cand, feasible=False,
            reason=(
                f"out of memory: needs {mem / 2**30:.2f} GiB "
                f"({model_bytes / 2**30:.2f} model + "
                f"{act_bytes / 2**30:.2f} activations) > "
                f"{capacity / 2**30:.2f} GiB device"
            ),
            memory_bytes=int(mem),
        )
    tensor, pipeline, m = cand.tensor, cand.pipeline, cand.microbatches
    algorithm = cand.algorithm

    # ---- tensor-parallel comm: the layer term (no records, 0.0, at tensor
    # degree 1), per layer and microbatch; sequence mode's weight record
    # reads the microbatch count
    mode = cand.mode
    tp_s = cache[
        "tp", tensor, mode, cand.depth, mb, algorithm,
        m if mode == "sequence" else 0,
    ] * (work.n_layers * m / pipeline)

    # ---- pipeline: bubble + boundary p2p traffic
    bubble = 0.0
    pp_s = 0.0
    if pipeline > 1:
        bubble = bubble_fraction(pipeline, m)
        boundary = mb * work.seq_len * work.hidden * work.bytes_per_elem
        # activations fwd + grads bwd
        pp_s = 2.0 * m * cache["hop", tensor, boundary]

    # ---- data-parallel / ZeRO sync (no records at DP 1), overlap hiding
    dp_raw = cache[
        "dp", cand.data, tensor * pipeline, cand.zero_stage, algorithm]
    dp_s = (
        overlap_exposed_seconds(dp_raw, BACKWARD_FRACTION * compute_s)
        if cand.overlap else dp_raw
    )

    step = (compute_s + tp_s + pp_s) / (1.0 - bubble) + dp_s
    notes = []
    if use_ckpt:
        notes.append("checkpointing")
    if cand.zero_stage:
        notes.append(f"zero{cand.zero_stage}")
    return CandidateScore(
        candidate=cand,
        feasible=True,
        step_seconds=step,
        compute_seconds=compute_s,
        tp_comm_seconds=tp_s,
        dp_comm_seconds=dp_s,
        dp_comm_raw_seconds=dp_raw,
        bubble_fraction=bubble,
        memory_bytes=int(mem),
        notes="+".join(notes),
    )
