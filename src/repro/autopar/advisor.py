"""Hardware-aware parallelization strategy search (§6 future work).

``suggest_plans(cluster, workload, global_batch)`` enumerates every valid
decomposition ``world = data x tensor x pipeline`` (with each tensor mode's
topology constraint: 1D any, 2D square, 2.5D d*k^2, 3D cubic, sequence
any), then for each plan predicts:

* **compute** — ``6 * params * tokens`` split over the ranks, at the
  device's effective FLOP rate, plus the activation-checkpointing reforward
  when memory requires it;
* **tensor-parallel communication** — the per-layer Table 1 volumes over
  the *actual* bottleneck bandwidth of the tensor group placed on
  consecutive GPUs (so a 1D group spanning a PCIe hop on System II is
  penalized exactly as in Fig 11);
* **data-parallel communication** — one bucketed gradient all-reduce;
* **pipeline bubble** — the GPipe factor ``(p-1)/(m+p-1)``;
* **memory feasibility** — model data (16 B/param under mixed-precision
  Adam, ZeRO-free) + activations must fit the device pool, else the plan
  is rejected.

The ranking reproduces the paper's hardware-dependent conclusions: on
System I small-scale 1D wins; on System II the advisor switches to 2D/2.5D
(Fig 11); at System IV scale the advanced modes take over (Table 3).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analytic.commvolume import (
    comm_volume_1d,
    comm_volume_25d,
    comm_volume_2d,
    comm_volume_3d,
)
from repro.analytic.memory_model import (
    model_data_bytes_per_rank,
    transformer_activation_bytes,
    transformer_param_count,
)
from repro.cluster.machine import ClusterSpec
from repro.comm.cost import CostModel


@dataclass(frozen=True)
class Workload:
    """A Transformer training workload."""

    n_layers: int
    hidden: int
    n_heads: int
    seq_len: int
    mlp_ratio: int = 4
    bytes_per_elem: int = 2  # fp16
    microbatches: int = 8

    @functools.cached_property
    def params(self) -> int:
        """Parameters of the layer stack (no embeddings): a function of
        the workload alone, so it is counted once per workload rather
        than once per candidate priced against it."""
        return transformer_param_count(
            self.n_layers, self.hidden, mlp_ratio=self.mlp_ratio
        )


@dataclass(frozen=True)
class ParallelPlan:
    data: int
    tensor: int
    mode: str  # "1d" | "2d" | "2.5d" | "3d" (depth via depth field)
    pipeline: int
    depth: int = 1

    def describe(self) -> str:
        t = f"{self.mode}x{self.tensor}"
        if self.mode == "2.5d":
            t += f"(d={self.depth})"
        return f"dp{self.data} * {t} * pp{self.pipeline}"


@dataclass
class PlanEstimate:
    plan: ParallelPlan
    step_seconds: float
    compute_seconds: float
    tp_comm_seconds: float
    dp_comm_seconds: float
    bubble_fraction: float
    memory_bytes: int
    fits: bool
    notes: str = ""


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


def _tp_bandwidths(
    cluster: ClusterSpec, tensor: int, mode: str, depth: int
) -> Tuple[float, float]:
    """(activation-traffic bandwidth, weight-traffic bandwidth) for a
    tensor group placed on consecutive GPUs 0..tensor-1.

    In SUMMA-style modes the activation blocks are broadcast within *row*
    groups and the weight blocks within *column* groups; on asymmetric
    machines (System II) the rows sit on NVLink pairs while the columns
    cross PCIe, which is why 2D beats 1D there (Fig 11b) even though its
    raw Table 1 volume at p=4 is larger."""
    topo = cluster.topology
    names = cluster.gpu_names(list(range(tensor)))
    if mode == "1d":
        bw = topo.ring_bandwidth(names)
        return bw, bw
    if mode == "2d":
        q = math.isqrt(tensor)
        rows = [names[i * q : (i + 1) * q] for i in range(q)]
        cols = [[names[i * q + j] for i in range(q)] for j in range(q)]
        return (
            min(topo.ring_bandwidth(g) for g in rows),
            min(topo.ring_bandwidth(g) for g in cols),
        )
    if mode == "2.5d":
        q = math.isqrt(tensor // depth)
        rows, cols = [], []
        for dd in range(depth):
            base = dd * q * q
            for i in range(q):
                rows.append(names[base + i * q : base + (i + 1) * q])
                cols.append([names[base + ii * q + i] for ii in range(q)])
        return (
            min(topo.ring_bandwidth(g) for g in rows),
            min(topo.ring_bandwidth(g) for g in cols),
        )
    l = round(tensor ** (1 / 3))
    x_groups, w_groups = [], []
    for i in range(l):
        for j in range(l):
            x_groups.append([names[i * l * l + j * l + k] for k in range(l)])
            w_groups.append([names[jj * l * l + i * l + j] for jj in range(l)])
    return (
        min(topo.ring_bandwidth(g) for g in x_groups),
        min(topo.ring_bandwidth(g) for g in w_groups),
    )


def _tp_volume_per_layer(
    mode: str, tensor: int, depth: int, batch: int, seq: int, hidden: int, mlp: int
) -> Tuple[float, float]:
    """(activation wire elements, weight wire elements) per Transformer
    layer fwd+bwd, from the Table 1 forms applied to the layer's 4 linears
    (QKV, out, MLP up/down)."""
    if tensor == 1:
        return 0.0, 0.0
    matmuls = [
        (hidden, 3 * hidden),
        (hidden, hidden),
        (hidden, mlp * hidden),
        (mlp * hidden, hidden),
    ]
    act = wgt = 0.0
    for k, n in matmuls:
        sx = batch * seq * k
        sw = k * n
        if mode == "1d":
            continue  # handled once per layer below
        if mode == "2d":
            j = math.isqrt(tensor)
            act += 3 * (j - 1) * sx
            wgt += 3 * (j - 1) * sw
        elif mode == "2.5d":
            kk = math.isqrt(tensor // depth)
            act += 3 * (kk - 1) * sx
            wgt += 3 * (kk - 1) * depth * sw
        else:  # 3d
            l = round(tensor ** (1 / 3))
            sy = batch * seq * n
            act += 2 * (l - 1) * (sx + sy)
            wgt += 2 * (l - 1) * sw
    if mode == "1d":
        sx = batch * seq * hidden
        act = 2 * (2 * (tensor - 1) * sx)  # 2 allreduce pairs (attn + MLP)
    return act, wgt


def estimate_plan(
    cluster: ClusterSpec,
    work: Workload,
    plan: ParallelPlan,
    global_batch: int,
    zero_stage: int = 0,
) -> PlanEstimate:
    dev = cluster.gpus[0]
    p_total = plan.data * plan.tensor * plan.pipeline
    params = transformer_param_count(work.n_layers, work.hidden, mlp_ratio=work.mlp_ratio)
    tokens = global_batch * work.seq_len

    # ---- memory (per rank): sharded model data + one microbatch's
    # activations.  A ZeRO stage additionally partitions the partitionable
    # slice of the local model data across the data-parallel group — without
    # this the advisor priced every plan ZeRO-free and rejected
    # configurations the paper runs (e.g. ZeRO-3 10B-param fine-tuning).
    params_local = params // (plan.tensor * plan.pipeline)
    model_bytes = model_data_bytes_per_rank(
        params_local, data=plan.data, zero_stage=zero_stage
    )
    micro_batch = max(global_batch // (plan.data * work.microbatches), 1)
    layers_local = math.ceil(work.n_layers / plan.pipeline)
    act_plain = transformer_activation_bytes(
        micro_batch, work.seq_len, work.hidden, work.n_heads,
        layers_local, work.mlp_ratio, work.bytes_per_elem,
    ) // plan.tensor
    act_ckpt = transformer_activation_bytes(
        micro_batch, work.seq_len, work.hidden, work.n_heads,
        layers_local, work.mlp_ratio, work.bytes_per_elem, checkpoint=True,
    ) // plan.tensor + act_plain // max(layers_local, 1)
    use_ckpt = model_bytes + act_plain > dev.memory_capacity
    act_bytes = act_ckpt if use_ckpt else act_plain
    mem = model_bytes + act_bytes
    fits = mem <= dev.memory_capacity

    # ---- compute
    flops_per_rank = 6.0 * params * tokens / p_total
    if use_ckpt:
        flops_per_rank *= 4.0 / 3.0  # re-forward
    compute_s = dev.compute_seconds(flops_per_rank, "float16")

    # ---- tensor-parallel comm
    batch_per_replica = global_batch // plan.data
    act_v, wgt_v = _tp_volume_per_layer(
        plan.mode, plan.tensor, plan.depth,
        batch_per_replica, work.seq_len, work.hidden, work.mlp_ratio,
    )
    act_v *= work.n_layers
    wgt_v *= work.n_layers
    cm = CostModel(cluster)
    if plan.tensor > 1:
        bw_act, bw_wgt = _tp_bandwidths(cluster, plan.tensor, plan.mode, plan.depth)
        tp_s = 0.0
        for vol, bw in ((act_v, bw_act), (wgt_v, bw_wgt)):
            if vol <= 0:
                continue
            per_rank_bytes = vol * work.bytes_per_elem / plan.tensor
            # representative message: one layer's share on one rank
            msg = max(per_rank_bytes / max(work.n_layers * 4, 1), 1)
            tp_s += per_rank_bytes / cm._eff(bw, int(msg))
    else:
        tp_s = 0.0

    # ---- data-parallel comm: one gradient allreduce of the local shard
    if plan.data > 1:
        grad_bytes = int(params * work.bytes_per_elem / (plan.tensor * plan.pipeline))
        ranks = [i * plan.tensor * plan.pipeline for i in range(plan.data)]
        dp_s = cm.allreduce(ranks, grad_bytes).seconds
    else:
        dp_s = 0.0

    # ---- pipeline bubble
    bubble = (
        (plan.pipeline - 1) / (work.microbatches + plan.pipeline - 1)
        if plan.pipeline > 1
        else 0.0
    )
    step = (compute_s + tp_s) / (1 - bubble) + dp_s
    notes = []
    if use_ckpt:
        notes.append("checkpointing")
    if zero_stage and plan.data > 1:
        notes.append(f"zero{zero_stage}")
    return PlanEstimate(
        plan=plan,
        step_seconds=step,
        compute_seconds=compute_s,
        tp_comm_seconds=tp_s,
        dp_comm_seconds=dp_s,
        bubble_fraction=bubble,
        memory_bytes=int(mem),
        fits=fits,
        notes="+".join(notes),
    )


def suggest_plans(
    cluster: ClusterSpec,
    work: Workload,
    global_batch: int,
    world_size: Optional[int] = None,
    top_k: int = 5,
    zero_stage: int = 0,
) -> List[PlanEstimate]:
    """Enumerate, estimate and rank parallel plans; infeasible (OOM) plans
    are dropped.  Returns the ``top_k`` fastest.  ``zero_stage`` prices the
    memory feasibility check with the ZeRO partitioning applied."""
    world = world_size or cluster.world_size
    results: List[PlanEstimate] = []
    for tensor in [d for d in range(1, world + 1) if world % d == 0]:
        rem = world // tensor
        for pipeline in [d for d in range(1, rem + 1) if rem % d == 0]:
            data = rem // pipeline
            if pipeline > work.n_layers:
                continue
            if global_batch % (data * work.microbatches or 1):
                continue
            for mode, depth in _tensor_modes(tensor):
                if mode in ("1d",) and work.n_heads % tensor:
                    continue
                plan = ParallelPlan(data, tensor, mode, pipeline, depth)
                est = estimate_plan(
                    cluster, work, plan, global_batch, zero_stage=zero_stage
                )
                if est.fits:
                    results.append(est)
    results.sort(key=lambda e: e.step_seconds)
    return results[:top_k]
