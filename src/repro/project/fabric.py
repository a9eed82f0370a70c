"""Closed-form fabric model for pricing collectives at projected scale.

The real :class:`~repro.comm.cost.CostModel` walks the cluster's link
graph per member pair, which is fine at 2–64 ranks but quadratic in the
group size — pricing a single 4096-rank all-reduce that way would dominate
the projection budget.  A :class:`Fabric` abstracts the cluster down to the
five numbers the cost formulas actually consume (intra/inter-node bandwidth
and latency, node size), and :class:`ProjectedCostModel` overrides only
``CostModel``'s link probes (``_path``, ``_ring``, ``_pairwise``,
``_islands``, ``_island_phases``) with O(1)/O(k)-in-node-count
closed forms.  Every cost formula — ring, tree and hierarchical
collectives, p2p, ring pass, host transfer — is ``CostModel``'s own, the
memo in front of them is the cluster stand-in's, and so is the host link,
so a projection priced on a :meth:`Fabric.from_cluster` of the
captured cluster reproduces the captured costs exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Sequence, Tuple

from repro.comm.cost import CostModel


@dataclass(frozen=True)
class Fabric:
    """Two-level cluster abstraction: nodes of ``node_size`` devices with
    ``intra``-node links, bridged by ``inter``-node links."""

    node_size: int
    intra_bw: float
    intra_lat: float
    inter_bw: float
    inter_lat: float
    alpha: float = 5e-6
    bw_ramp_time: float = 1.6e-4
    h2d_bw: float = 16e9

    @classmethod
    def uniform(cls, bandwidth: float = 200e9, latency: float = 2e-6,
                alpha: float = 5e-6, bw_ramp_time: float = 1.6e-4,
                h2d_bw: float = 16e9) -> "Fabric":
        """A flat fabric: every pair of ranks sees the same link (one
        infinitely large node)."""
        return cls(
            node_size=1 << 62, intra_bw=bandwidth, intra_lat=latency,
            inter_bw=bandwidth, inter_lat=latency,
            alpha=alpha, bw_ramp_time=bw_ramp_time, h2d_bw=h2d_bw,
        )

    @classmethod
    def from_cluster(cls, cluster) -> "Fabric":
        """Distill a :class:`~repro.cluster.machine.ClusterSpec` into a
        fabric by sampling representative intra- and inter-node paths."""
        by_node = {}
        for gpu in cluster.gpus:
            by_node.setdefault(gpu.node, []).append(gpu)
        node_size = max(len(v) for v in by_node.values())
        nodes = sorted(by_node)
        first = by_node[nodes[0]]
        if len(first) > 1:
            intra_bw, intra_lat = cluster.topology.path_stats(
                first[0].name, first[1].name
            )
        else:
            intra_bw, intra_lat = cluster.topology.path_stats(
                first[0].name, first[0].name
            )
        if len(nodes) > 1:
            inter_bw, inter_lat = cluster.topology.path_stats(
                first[0].name, by_node[nodes[1]][0].name
            )
        else:
            inter_bw, inter_lat = intra_bw, intra_lat
        return cls(
            node_size=node_size,
            intra_bw=intra_bw, intra_lat=intra_lat,
            inter_bw=inter_bw, inter_lat=inter_lat,
            alpha=cluster.alpha, bw_ramp_time=cluster.bw_ramp_time,
            h2d_bw=cluster.h2d_bandwidth(0),
        )


class _FabricCluster:
    """What ``CostModel`` reads off a cluster once the probes answer for
    the link graph: the α and ramp constants, the host link, and a
    ``topology`` whose one field is the price memo, ``prices``, which no
    other model shares."""

    __slots__ = ("alpha", "bw_ramp_time", "topology", "fabric")

    def __init__(self, fabric: Fabric) -> None:
        self.alpha = fabric.alpha
        self.bw_ramp_time = fabric.bw_ramp_time
        self.topology = SimpleNamespace(prices={})
        self.fabric = fabric

    def h2d_bandwidth(self, rank: int) -> float:
        return self.fabric.h2d_bw


class ProjectedCostModel(CostModel):
    """A :class:`CostModel` over a :class:`Fabric` instead of a topology.

    Ranks are plain integers; rank ``r`` lives on node ``r // node_size``.
    Every override below is a link probe that replaces a topology walk
    with its closed form; every public method and cost formula is
    inherited.
    """

    def __init__(self, fabric: Fabric) -> None:
        super().__init__(_FabricCluster(fabric))
        self.fabric = fabric

    def _node_of(self, rank: int) -> int:
        return int(rank) // self.fabric.node_size

    # -- topology-probing seams, replaced with closed forms ---------------

    def _pairwise(self, ranks: Sequence[int]) -> Tuple[float, float]:
        """(min pair bandwidth, max pair latency) over all member pairs —
        the closed form of iterating ``path_stats`` over combinations."""
        f = self.fabric
        counts: dict = {}
        for r in ranks:
            n = self._node_of(r)
            counts[n] = counts.get(n, 0) + 1
        bw = math.inf
        lat = 0.0
        if any(c > 1 for c in counts.values()):
            bw = min(bw, f.intra_bw)
            lat = max(lat, f.intra_lat)
        if len(counts) > 1:
            bw = min(bw, f.inter_bw)
            lat = max(lat, f.inter_lat)
        return bw, lat

    def _ring(self, ranks: Sequence[int]) -> Tuple[float, float]:
        """Node-contiguous ring: ``p`` hops of which ``k`` cross a node
        boundary — the closed form of ``ring_stats(order_ring(names))`` on
        a two-level fabric (each bridge crossing uses a distinct physical
        link, so there is no self-contention to model)."""
        f = self.fabric
        p = len(ranks)
        k = len({self._node_of(r) for r in ranks})
        if k <= 1:
            return f.intra_bw, p * f.intra_lat
        return (
            min(f.intra_bw, f.inter_bw),
            (p - k) * f.intra_lat + k * f.inter_lat,
        )

    def _path(self, src: int, dst: int) -> Tuple[float, float]:
        if self._node_of(src) == self._node_of(dst):
            return self.fabric.intra_bw, self.fabric.intra_lat
        return self.fabric.inter_bw, self.fabric.inter_lat

    def _islands(self, ranks: Sequence[int]) -> List[List[int]]:
        groups: dict = {}
        for r in ranks:
            groups.setdefault(self._node_of(r), []).append(r)
        return [groups[n] for n in sorted(groups)]

    def _island_phases(self, islands: Sequence[Sequence[int]]):
        f = self.fabric
        intra = [
            (len(g), f.intra_bw, len(g) * f.intra_lat)
            for g in islands if len(g) > 1
        ]
        k = len(islands)
        # island leaders sit on distinct nodes, so their ring is k
        # inter-node hops (hierarchical only runs here when k >= 2)
        bridge_bw = f.inter_bw if k > 1 else f.intra_bw
        bridge_lat = k * f.inter_lat if k > 1 else f.intra_lat
        s = min(len(g) for g in islands)
        return intra, bridge_bw, bridge_lat, k, s
