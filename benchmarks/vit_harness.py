"""Shared spec-mode ViT throughput harness for Fig 11 and Table 3.

Builds a per-mode tensor-parallel ViT layer stack with activation
checkpointing (how these models actually fit on 16-80 GB cards), runs one
training step (forward + backward, optimizer excluded as in the paper's
img/sec), and reports the simulated step time; OOM-bounded batch search
doubles the batch until the memory pool overflows.
"""

from __future__ import annotations

from typing import Optional, Tuple

import repro
from repro.cluster.device import DeviceOutOfMemoryError
from repro.cluster.machine import ClusterSpec
from repro.comm import SpecArray
from repro.config import TensorParallelConfig
from repro.nn import Sequential, TransformerLayer
from repro.parallel import batch_divisor, tensor_mode
from repro.runtime import RemoteRankError
from repro.tensor import Tensor

DTYPE = "float16"
N_PATCHES = 196  # 224 / 16 squared


def vit_step_time(
    cluster: ClusterSpec,
    world: int,
    mode: str,
    batch: int,
    n_layers: int,
    hidden: int,
    heads: int,
    depth: int = 1,
    comm_algorithm: Optional[str] = None,
) -> Optional[float]:
    """Simulated seconds for one fwd+bwd step; None on OOM."""
    tdict = dict(size=world, mode=mode)
    if mode == "2.5d":
        tdict["depth"] = depth
    config = dict(parallel=dict(tensor=tdict))
    if comm_algorithm is not None:
        config["comm"] = dict(algorithm=comm_algorithm)
    cluster.reset()

    def prog(ctx, pc):
        tmode = tensor_mode(pc)
        layers = Sequential(
            [TransformerLayer(hidden, heads, dtype=DTYPE, mode=tmode) for _ in range(n_layers)],
            checkpoint=True,
        )
        x = Tensor(
            SpecArray(tmode.local_shape(batch, N_PATCHES, hidden), DTYPE),
            requires_grad=True,
        )
        t0 = ctx.clock.time
        layers(x).sum().backward()
        return ctx.clock.time - t0

    try:
        res = repro.launch(config, cluster, prog, world_size=world, materialize=False)
        return res[0]
    except RemoteRankError as e:
        if isinstance(e.cause, DeviceOutOfMemoryError):
            return None
        raise


def best_throughput(
    cluster: ClusterSpec,
    world: int,
    mode: str,
    n_layers: int,
    hidden: int,
    heads: int,
    depth: int = 1,
    max_batch: int = 4096,
    comm_algorithm: Optional[str] = None,
) -> Tuple[int, float]:
    """Paper's Fig 11 method: grow the batch until OOM; return
    (best batch, best global img/sec)."""
    div = batch_divisor(TensorParallelConfig(size=world, mode=mode, depth=depth))
    batch = max(8, div)
    best = (0, 0.0)
    while batch <= max_batch:
        t = vit_step_time(
            cluster, world, mode, batch, n_layers, hidden, heads, depth,
            comm_algorithm=comm_algorithm,
        )
        if t is None:
            break
        thr = batch / t
        if thr > best[1]:
            best = (batch, thr)
        batch *= 2
    return best
