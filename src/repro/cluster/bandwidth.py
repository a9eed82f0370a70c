"""Bandwidth probing — the analogue of the NCCL bandwidth test used for
Fig 10 of the paper (broadcasting 125 MB of data).

On System I every pair and every group sustains the NVLink rate; on
System II the rate collapses to the PCIe rate as soon as the pair or group
spans non-adjacent GPUs.  Each probe is the payload over the seconds
:class:`~repro.comm.cost.CostModel` charges for the transfer — the price a
simulated run of it pays, bandwidth ramp included — so the benchmark plots
Fig 10a/10b from the simulator's own numbers.
"""

from __future__ import annotations

from typing import List

from repro.cluster.machine import ClusterSpec
from repro.utils.units import MB

DEFAULT_PROBE_BYTES = 125 * MB


def measure_p2p_bandwidth(
    cluster: ClusterSpec, src: int, dst: int, nbytes: int = DEFAULT_PROBE_BYTES
) -> float:
    """Effective point-to-point bandwidth between two ranks (bytes/s): the
    payload over :meth:`CostModel.p2p`'s seconds (one message over the
    pair's bottleneck path)."""
    if src == dst:
        return float("inf")
    from repro.comm.cost import CostModel  # deferred: comm builds on cluster

    return nbytes / CostModel(cluster).p2p(src, dst, nbytes).seconds


def measure_broadcast_bandwidth(
    cluster: ClusterSpec, ranks: List[int], nbytes: int = DEFAULT_PROBE_BYTES
) -> float:
    """Effective broadcast bandwidth over a group of ranks (bytes/s): the
    payload over :meth:`CostModel.broadcast`'s seconds under the pipelined
    flat ring, which reproduces the Fig 10b cliff on System II — any group
    containing a non-adjacent pair is throttled to PCIe speed."""
    if len(ranks) < 2:
        return float("inf")
    from repro.comm.cost import CostModel  # deferred: comm builds on cluster

    return nbytes / CostModel(cluster).broadcast(ranks, nbytes).seconds


def measure_allreduce_bandwidth(
    cluster: ClusterSpec,
    ranks: List[int],
    nbytes: int = DEFAULT_PROBE_BYTES,
    algorithm: str = "ring",
) -> float:
    """Effective allreduce *bus bandwidth* over a group of ranks (bytes/s),
    under a chosen collective algorithm (``"auto"`` for cost-driven
    selection).

    Follows the nccl-tests convention: busbw = ``2(p-1)/p * nbytes / t``,
    which makes numbers comparable across group sizes and algorithms.
    """
    if len(ranks) < 2:
        return float("inf")
    from repro.comm.cost import CostModel  # deferred: comm builds on cluster

    p = len(ranks)
    cost = CostModel(cluster, algorithm=algorithm).allreduce(ranks, nbytes)
    return (2 * (p - 1) / p) * nbytes / cost.seconds
