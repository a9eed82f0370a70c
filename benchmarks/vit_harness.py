"""Shared spec-mode ViT throughput harness for Fig 11 and Table 3.

Launches the per-mode tensor-parallel ViT layer stack as the compiler's
launched step (``repro.autopar.compiler.launched_step``) with activation
checkpointing (how these models actually fit on 16-80 GB cards) and reads
its forward + backward seconds (the optimizer step excluded, as in the
paper's img/sec); OOM-bounded batch search doubles the batch until the
memory pool overflows.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.autopar import Workload
from repro.autopar.compiler import launched_step
from repro.cluster.device import DeviceOutOfMemoryError
from repro.cluster.machine import ClusterSpec
from repro.config import TensorParallelConfig
from repro.parallel import batch_divisor
from repro.runtime import RemoteRankError

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
    """Simulated seconds of one fp16 forward + backward; None on OOM."""
    tensor = dict(size=world, mode=mode, depth=depth)
    config = dict(parallel=dict(tensor=tensor), comm=dict(algorithm=comm_algorithm))
    work = Workload(n_layers=n_layers, hidden=hidden, n_heads=heads, seq_len=N_PATCHES)
    try:
        return launched_step(cluster, work, batch, config, world_size=world, checkpoint=True)[0]
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
