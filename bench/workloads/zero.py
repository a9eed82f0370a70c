"""Materialized ZeRO-offload training: real ndarrays through the chunk
manager, the communicator's combine/copy and the ``BufferPool`` — the
numpy-bound path the spec-mode workloads never touch.
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from repro.autograd import ops
from repro.cluster import uniform_cluster
from repro.comm import Communicator, CostModel
from repro.nn import CrossEntropyLoss, Linear, Module
from repro.optim import Adam
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor
from repro.trace import Tracer
from repro.zero import StaticPolicy, ZeroOffloadEngine

from workloads import IterResult, Workload
from workloads import common

WORLD, HIDDEN, CLASSES, LOCAL_BATCH, STEPS = 4, 256, 16, 32, 8
LR = 1e-2


class _Block(Module):
    def __init__(self, rng: np.random.Generator, out: int) -> None:
        super().__init__()
        self.lin = Linear(HIDDEN, out, rng=rng)

    def forward(self, x):
        y = self.lin(x)
        return ops.gelu(y) if self.lin.out_features == HIDDEN else y


class ZeroMlpReal(Workload):
    """4-rank ``ZeroOffloadEngine`` (static host offload, fp32 chunks)
    over a 3-block MLP, 8 train steps per iteration."""

    iterations = 24
    quick_iterations = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng([self.seed, 0])
        self.X = rng.standard_normal(
            (WORLD * LOCAL_BATCH, HIDDEN)).astype(np.float32)
        self.Y = rng.integers(0, CLASSES, WORLD * LOCAL_BATCH)
        self.baseline = self._single_rank_losses()
        self.first_losses: Any = None

    def _blocks(self) -> List[_Block]:
        outs = (HIDDEN, HIDDEN, CLASSES)
        return [
            _Block(np.random.default_rng([self.seed, 1 + i]), out)
            for i, out in enumerate(outs)
        ]

    def _single_rank_losses(self) -> List[float]:
        """The plain run: one rank, the whole batch, ordinary Adam."""
        crit = CrossEntropyLoss()
        losses: List[float] = []

        def prog(ctx):
            blocks = self._blocks()
            opt = Adam([p for b in blocks for p in b.parameters()], lr=LR)
            for _ in range(STEPS):
                x = Tensor(self.X.copy())
                for b in blocks:
                    x = b(x)
                loss = crit(x, self.Y)
                losses.append(loss.item())
                loss.backward()
                opt.step()
                opt.zero_grad()

        SpmdRuntime(uniform_cluster(1)).run(prog, seed=self.seed)
        return losses

    def iterate(self, spans: Any, observe: bool) -> IterResult:
        cluster = uniform_cluster(WORLD)
        tracer = Tracer() if observe else None
        rt = SpmdRuntime(cluster, tracer=tracer)
        crit = CrossEntropyLoss()

        def prog(ctx):
            pol = StaticPolicy(
                ctx.device, ctx.cpu, CostModel(ctx.cluster), ctx.rank)
            eng = ZeroOffloadEngine(
                ctx, self._blocks(), Communicator.world(ctx), pol,
                criterion=crit, chunk_mb=0.05, lr=LR, param_dtype="float32")
            lo = ctx.rank * LOCAL_BATCH
            x, y = self.X[lo:lo + LOCAL_BATCH], self.Y[lo:lo + LOCAL_BATCH]
            t0 = ctx.clock.time
            losses = [eng.train_step(x, y) for _ in range(STEPS)]
            return ctx.clock.time - t0, losses

        with spans.span("SpmdRuntime.run", "runtime"):
            out = rt.run(prog, seed=self.seed)
        per_rank = np.array([losses for _, losses in out])
        # equal shards under a mean loss: the rank mean is the full-batch loss
        mean_losses = per_rank.mean(axis=0)
        if self.first_losses is None:
            self.first_losses = per_rank
        res = IterResult(
            sim={
                "sim_step_s": max(step for step, _ in out),
                "sim_peak_mem_bytes":
                    common.peak_device_bytes(cluster, WORLD),
            },
            checks=[
                ("buffer_pool_clean", common.pool_is_clean(rt)),
                ("losses_match_single_rank",
                 bool(np.allclose(mean_losses, self.baseline,
                                  rtol=1e-4, atol=1e-5))),
                ("losses_bitwise_stable",
                 bool(np.array_equal(per_rank, self.first_losses))),
            ],
        )
        if observe:
            row = common.slowest_rank_breakdown(rt)
            res.layers.update(common.comm_metrics(rt, [range(WORLD)]))
            res.layers.update(common.runtime_metrics(rt))
            res.layers.update(common.trace_metrics(tracer))
            res.layers["zero.sim_offload_s"] = row["offload"]
            res.layers["zero.sim_optimizer_s"] = row["optimizer"]
            res.layers["cluster.peak_device_bytes"] = (
                res.sim["sim_peak_mem_bytes"])
            res.program_trace = common.program_events(tracer)
        return res
