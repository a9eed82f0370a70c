"""Spec-mode training steps: the DDP ViT step through ``SpmdRuntime.run``
and the DP x TP x PP GPT step through ``repro.launch``.

Spec mode carries shapes and bytes but no data, so the seed reaches the
program (``run(seed=)`` / ``Config.seed``) without moving any simulated
number; that is itself checked, iteration against iteration.
"""

from __future__ import annotations

from typing import Any

import repro
from repro.autograd import checkpoint
from repro.cluster import system_ii, system_iii
from repro.comm import SpecArray
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.nn import ModuleList, TransformerLayer
from repro.nn.module import Module
from repro.parallel.data import DistributedDataParallel, sync_gradients
from repro.parallel.pipeline import GPipeSchedule, partition_uniform
from repro.parallel.tensor1d import ParallelTransformerLayer1D
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor
from repro.trace import Tracer

from workloads import IterResult, Workload
from workloads import common


class _VitStack(Module):
    """16 checkpointed fp16 Transformer layers (ViT-style encoder body)."""

    def __init__(self, layers: int, hidden: int, heads: int) -> None:
        super().__init__()
        self.layers = ModuleList([
            TransformerLayer(hidden, heads, dtype="float16")
            for _ in range(layers)
        ])

    def forward(self, x):
        for layer in self.layers:
            x = checkpoint(layer, x)
        return x


class DdpVitSpec(Workload):
    """8-rank DDP ViT step on System II, gradient buckets overlapped."""

    iterations = 24
    quick_iterations = 2

    WORLD, LAYERS, HIDDEN, HEADS = 8, 16, 3072, 48
    BATCH, PATCHES = 64, 196

    def iterate(self, spans: Any, observe: bool) -> IterResult:
        # a fresh cluster per iteration: device pools start empty and the
        # previous iteration's tensors release against their own pools
        cluster = system_ii()
        tracer = Tracer() if observe else None
        rt = SpmdRuntime(cluster, self.WORLD, comm_overlap=True, tracer=tracer)

        def prog(ctx):
            pc = ParallelContext(ctx, Config.from_dict({}))
            ddp = DistributedDataParallel(
                _VitStack(self.LAYERS, self.HIDDEN, self.HEADS), pc,
                overlap=True)
            x = Tensor(
                SpecArray((self.BATCH // self.WORLD, self.PATCHES,
                           self.HIDDEN), "float16"),
                requires_grad=True)
            t0 = ctx.clock.time
            ddp(x).sum().backward()
            ddp.sync()
            return ctx.clock.time - t0

        with spans.span("SpmdRuntime.run", "runtime"):
            steps = rt.run(prog, materialize=False, seed=self.seed)
        res = IterResult(
            sim={
                "sim_step_s": max(steps),
                "sim_peak_mem_bytes":
                    common.peak_device_bytes(cluster, self.WORLD),
            },
            checks=[("buffer_pool_clean", common.pool_is_clean(rt))],
        )
        if observe:
            res.layers.update(
                common.comm_metrics(rt, [range(self.WORLD)]))
            res.layers.update(common.runtime_metrics(rt))
            res.layers.update(common.trace_metrics(tracer))
            res.layers["cluster.peak_device_bytes"] = (
                res.sim["sim_peak_mem_bytes"])
            res.program_trace = common.program_events(tracer)
        return res


class _GptStage(Module):
    """One pipeline stage of 1D-tensor-parallel causal layers."""

    def __init__(self, n_layers: int, hidden: int, heads: int,
                 tp_comm: Any) -> None:
        super().__init__()
        self.layers = ModuleList([
            ParallelTransformerLayer1D(
                hidden, heads, tp_comm, causal=True, dtype="float16")
            for _ in range(n_layers)
        ])

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


class HybridGptSpec(Workload):
    """DP2 x TP2(1D) x PP2 GPT step through ``repro.launch`` on System
    III: GPipe over 4 microbatches, then data-parallel gradient sync."""

    iterations = 30
    quick_iterations = 2

    WORLD, TP, PP = 8, 2, 2
    LAYERS, HIDDEN, HEADS = 8, 1024, 16
    REPLICA_BATCH, SEQ, MICROBATCHES = 16, 512, 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = Config.from_dict(dict(
            parallel=dict(tensor=dict(size=self.TP, mode="1d"),
                          pipeline=self.PP),
            num_microbatches=self.MICROBATCHES,
            seed=self.seed,
        ))

    def iterate(self, spans: Any, observe: bool) -> IterResult:
        cluster = system_iii(n_nodes=self.WORLD // 4)
        rt = SpmdRuntime(cluster, self.WORLD)
        tracer = Tracer() if observe else None

        def prog(ctx, pc):
            start, end = partition_uniform(self.LAYERS, self.PP)[pc.pp_rank]
            stage = _GptStage(end - start, self.HIDDEN, self.HEADS,
                              pc.comm(ParallelMode.TENSOR))
            x = SpecArray((self.REPLICA_BATCH, self.SEQ, self.HIDDEN),
                          "float16")
            t0 = ctx.clock.time
            GPipeSchedule(pc, self.MICROBATCHES).run(
                stage,
                x if pc.is_first_pipeline_stage() else None,
                None,
                (lambda out, y: out.sum())
                if pc.is_last_pipeline_stage() else None,
            )
            dp = pc.comm(ParallelMode.DATA)
            sync_gradients(stage.parameters(), dp)
            groups = [
                tuple(pc.comm(mode).group.ranks)
                for mode in (ParallelMode.DATA, ParallelMode.TENSOR,
                             ParallelMode.PIPELINE)
            ]
            return ctx.clock.time - t0, groups

        with spans.span("repro.launch", "engine"):
            out = repro.launch(
                self.config, cluster, prog, world_size=self.WORLD,
                materialize=False, runtime=rt, tracer=tracer)
        res = IterResult(
            sim={
                "sim_step_s": max(step for step, _ in out),
                "sim_peak_mem_bytes":
                    common.peak_device_bytes(cluster, self.WORLD),
            },
            checks=[("buffer_pool_clean", common.pool_is_clean(rt))],
        )
        if observe:
            groups = [g for _, gs in out for g in gs]
            res.layers.update(common.comm_metrics(rt, groups))
            res.layers.update(common.runtime_metrics(rt))
            res.layers.update(common.trace_metrics(tracer))
            res.layers["cluster.peak_device_bytes"] = (
                res.sim["sim_peak_mem_bytes"])
            res.program_trace = common.program_events(tracer)
        return res
