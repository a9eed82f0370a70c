"""Interconnect topologies.

A :class:`Topology` is a link graph over device names with per-link bandwidth
(bytes/s) and latency (s).  Effective point-to-point bandwidth between two
devices is the bottleneck bandwidth along the shortest path — this is what
makes System II (NVLink only between adjacent GPU pairs, PCIe otherwise,
Fig 9b) behave differently from System I (fully-connected NVLink, Fig 9a):
a collective that crosses a PCIe hop is limited by the PCIe link, which is
the exact mechanism behind the paper's Fig 10/11 results.

The graph is an insertion-ordered adjacency dict the class owns; multi-node
systems (III, IV) are assembled as node-local cliques bridged by NIC links
arranged in a dragonfly pattern.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Any, Dict, List, Optional, Tuple

from repro.utils.units import GB


class LinkType(enum.Enum):
    NVLINK = "nvlink"
    PCIE = "pcie"
    INFINIBAND = "infiniband"
    ARIES = "aries"
    HOST = "host"  # CPU <-> GPU over PCIe


#: Default per-link unidirectional bandwidths (bytes/s) and latencies (s).
LINK_BANDWIDTH: Dict[LinkType, float] = {
    LinkType.NVLINK: 200 * GB,
    LinkType.PCIE: 16 * GB,
    LinkType.INFINIBAND: 25 * GB,  # HDR 200 Gb/s
    LinkType.ARIES: 10 * GB,
    LinkType.HOST: 16 * GB,
}

LINK_LATENCY: Dict[LinkType, float] = {
    LinkType.NVLINK: 2e-6,
    LinkType.PCIE: 5e-6,
    LinkType.INFINIBAND: 8e-6,
    LinkType.ARIES: 10e-6,
    LinkType.HOST: 5e-6,
}

#: A member pair is on one fast-link island when its path bandwidth is at
#: least this share of the group's fastest pair's (:meth:`Topology.islands`).
ISLAND_RATIO = 0.5


class Topology:
    """Link graph with bandwidth/latency queries.

    Bandwidth queries are cached: SPMD collectives issue many identical
    queries per step and shortest-path search would otherwise dominate.
    The walks over a group's pairs read that cache inline and enter
    :meth:`path_stats` on a miss only, so a cold walk is one frame.
    """

    def __init__(self) -> None:
        #: device -> {neighbour -> link attributes}, both in insertion
        #: order; the two directions of a link share one attribute dict
        self._adj: Dict[str, Dict[str, Dict[str, Any]]] = {}
        self._bw_cache: Dict[Tuple[str, str], Tuple[float, float]] = {}
        self._path_cache: Dict[Tuple[str, str], List[str]] = {}
        self._ring_cache: Dict[Tuple[str, ...], Tuple[float, float]] = {}
        self._order_cache: Dict[Tuple[str, ...], List[str]] = {}
        self._island_cache: Dict[Tuple[str, ...], List[List[str]]] = {}
        #: monotone counter bumped *after* every structural/bandwidth
        #: change; read-only outside this class.  Consumers that memoize
        #: anything derived from the link graph (the ``CostModel`` probe
        #: memo, the ``AlgorithmSelector``) compare it to detect
        #: fault-injected degradation (:meth:`scale_link`) and recovery
        #: (:meth:`restore_links`).
        self.version = 0

    def _invalidate(self) -> None:
        self._bw_cache.clear()
        self._path_cache.clear()
        self._ring_cache.clear()
        self._order_cache.clear()
        self._island_cache.clear()
        self.version += 1

    def add_device(self, name: str) -> None:
        self._adj.setdefault(name, {})

    def add_link(
        self,
        a: str,
        b: str,
        link: LinkType,
        bandwidth: Optional[float] = None,
        latency: Optional[float] = None,
    ) -> None:
        """Add an undirected link between devices ``a`` and ``b``; a link
        already there is replaced whole (degradation state included) and
        keeps its place in the neighbour order."""
        if bandwidth is None:
            bandwidth = LINK_BANDWIDTH[link]
        if latency is None:
            latency = LINK_LATENCY[link]
        if not bandwidth > 0.0 or not 0.0 <= latency < math.inf:
            raise ValueError(
                f"link {a} <-> {b}: bandwidth must be positive and latency "
                f"finite and non-negative, got {bandwidth} and {latency}")
        attrs = {"link": link, "bandwidth": bandwidth, "latency": latency}
        self._adj.setdefault(a, {})[b] = attrs
        self._adj.setdefault(b, {})[a] = attrs
        self._invalidate()

    def _link(self, a: str, b: str) -> Optional[Dict[str, Any]]:
        return self._adj.get(a, {}).get(b)

    def has_direct_link(self, a: str, b: str) -> bool:
        return self._link(a, b) is not None

    def links(self) -> List[Tuple[str, str]]:
        """Every link once, as ``(a, b)`` in insertion order."""
        out: List[Tuple[str, str]] = []
        listed = set()
        for a, neighbours in self._adj.items():
            for b in neighbours:
                if b not in listed:
                    out.append((a, b))
            listed.add(a)
        return out

    def scale_link(self, a: str, b: str, factor: float) -> None:
        """Set a link's bandwidth to ``factor`` times its *base* rate
        (fault injection: ``factor`` < 1 degrades, 1.0 restores).

        Idempotent: repeated calls scale the original bandwidth, not the
        already-scaled value, so re-installing a fault plan is safe.
        """
        if not factor > 0:
            raise ValueError(f"bandwidth scale factor must be positive, got {factor}")
        edge = self._link(a, b)
        if edge is None:
            raise ValueError(f"no direct link between {a} and {b}")
        base = edge.setdefault("base_bandwidth", edge["bandwidth"])
        edge["bandwidth"] = base * factor
        self._invalidate()

    def restore_links(self) -> None:
        """Undo every :meth:`scale_link` degradation."""
        for neighbours in self._adj.values():
            for data in neighbours.values():
                if "base_bandwidth" in data:
                    data["bandwidth"] = data["base_bandwidth"]
        self._invalidate()

    def link_type(self, a: str, b: str) -> Optional[LinkType]:
        edge = self._link(a, b)
        return edge["link"] if edge is not None else None

    def _route(self, a: str, b: str) -> List[str]:
        """Hop-count shortest path ``a -> b``: a bidirectional breadth-first
        search that grows the smaller fringe first and visits neighbours in
        link-insertion order.  That fixes the choice among equally short
        paths, which every golden depends on:
        ``tests/test_cluster_topology.py`` holds it against the graph
        library it was ported from."""
        adj = self._adj
        if a in adj and b in adj:
            if a == b:
                return [a]
            pred: Dict[str, Optional[str]] = {a: None}
            succ: Dict[str, Optional[str]] = {b: None}
            forward, reverse = [a], [b]
            while forward and reverse:
                if len(forward) <= len(reverse):
                    level, seen, other = forward, pred, succ
                    forward = grown = []
                else:
                    level, seen, other = reverse, succ, pred
                    reverse = grown = []
                for v in level:
                    for w in adj[v]:
                        if w not in seen:
                            grown.append(w)
                            seen[w] = v
                        if w in other:  # the fringes met at w
                            path = []
                            n: Optional[str] = w
                            while n is not None:
                                path.append(n)
                                n = pred[n]
                            path.reverse()
                            n = succ[w]
                            while n is not None:
                                path.append(n)
                                n = succ[n]
                            return path
        raise ValueError(f"no interconnect path between {a} and {b}")

    def path_stats(self, a: str, b: str) -> Tuple[float, float]:
        """Return ``(bottleneck_bandwidth, total_latency)`` between two devices.

        Uses the hop-count shortest path; the effective bandwidth is the
        minimum link bandwidth on the path and the latency is the sum.
        Both directions of a pair read the route of its sorted order, so
        which of equally short paths prices the pair does not depend on
        who asked first.
        """
        if a == b:
            return float("inf"), 0.0
        key = (a, b) if a <= b else (b, a)
        cached = self._bw_cache.get(key)
        if cached is not None:
            return cached
        path = self._route(*key)
        bw = float("inf")
        lat = 0.0
        for u, v in zip(path, path[1:]):
            edge = self._adj[u][v]
            bw = min(bw, edge["bandwidth"])
            lat += edge["latency"]
        self._bw_cache[key] = (bw, lat)
        return bw, lat

    def bandwidth(self, a: str, b: str) -> float:
        return self.path_stats(a, b)[0]

    def latency(self, a: str, b: str) -> float:
        return self.path_stats(a, b)[1]

    def ring_bandwidth(self, names: List[str]) -> float:
        """Bottleneck bandwidth around the ring ``names[0] -> ... -> names[0]``.

        Ring collectives (NCCL-style allreduce/allgather) are limited by the
        slowest link on the ring, not the slowest pair overall.
        """
        if len(names) < 2:
            return float("inf")
        bw = float("inf")
        for a, b in zip(names, names[1:] + names[:1]):
            bw = min(bw, self.bandwidth(a, b))
        return bw

    def shortest_path(self, a: str, b: str) -> List[str]:
        """Hop-count shortest path between two devices (cached)."""
        key = (a, b)
        path = self._path_cache.get(key)
        if path is None:
            path = self._path_cache[key] = self._route(a, b)
        return path

    def ring_stats(self, names: List[str]) -> Tuple[float, float]:
        """Contention-aware ``(bottleneck bandwidth, latency sum)`` of the
        directed ring ``names[0] -> names[1] -> ... -> names[0]``.

        Unlike :meth:`ring_bandwidth`, hops are routed over their shortest
        paths and every *directed* physical link divides its bandwidth by the
        number of ring hops that traverse it.  A ring that re-crosses the
        same bridge link in the same direction (an interleaved multi-node
        ordering, or members routed through a shared gateway) is throttled
        accordingly — this is what makes the topology-aware member ordering
        of :meth:`order_ring` matter.  Links are full duplex: the two
        directions of one physical link do not contend (so a 2-ring costs one
        traversal, as before).
        """
        if len(names) < 2:
            return float("inf"), 0.0
        key = tuple(names)
        cached = self._ring_cache.get(key)
        if cached is not None:
            return cached
        load: Dict[Tuple[str, str], int] = {}
        lat = 0.0
        for a, b in zip(names, names[1:] + names[:1]):
            path = self.shortest_path(a, b)
            for u, v in zip(path, path[1:]):
                load[(u, v)] = load.get((u, v), 0) + 1
                lat += self._adj[u][v]["latency"]
        bw = min(
            self._adj[u][v]["bandwidth"] / uses
            for (u, v), uses in load.items()
        )
        self._ring_cache[key] = (bw, lat)
        return bw, lat

    def pairwise_stats(self, names: List[str]) -> Tuple[float, float]:
        """``(lowest bandwidth, highest latency)`` over every pair of
        ``names``: :meth:`path_stats` folded over the pairs in one walk."""
        cache = self._bw_cache
        bw = math.inf
        lat = 0.0
        for a, b in itertools.combinations(names, 2):
            stats = cache.get((a, b) if a <= b else (b, a))
            if stats is None:
                stats = self.path_stats(a, b)
            if stats[0] < bw:
                bw = stats[0]
            if stats[1] > lat:
                lat = stats[1]
        return bw, lat

    def order_ring(self, names: List[str]) -> List[str]:
        """Greedy high-bandwidth ring ordering of ``names``.

        Starting from ``names[0]``, repeatedly append the unvisited member
        with the highest path bandwidth from the current tail (ties broken by
        position in ``names``, so uniform topologies keep the given order).
        On System II this makes a scrambled group hug its NVLink pairs and
        cross PCIe only between islands instead of at every hop.
        """
        if len(names) <= 2:
            return list(names)
        key = tuple(names)
        cached = self._order_cache.get(key)
        if cached is None:
            cache = self._bw_cache
            cached = [names[0]]
            remaining = list(names[1:])
            while remaining:
                cur = cached[-1]
                best, best_bw = 0, -1.0
                for i, n in enumerate(remaining):
                    stats = cache.get((cur, n) if cur <= n else (n, cur))
                    if stats is None:
                        stats = self.path_stats(cur, n)
                    if stats[0] > best_bw:  # the first of the fastest
                        best, best_bw = i, stats[0]
                cached.append(remaining.pop(best))
            self._order_cache[key] = cached
        return list(cached)

    def islands(self, names: List[str]) -> List[List[str]]:
        """Partition ``names`` into fast-link islands.

        Two members belong to the same island when their path bandwidth is at
        least ``ISLAND_RATIO`` times the fastest member pair's; islands are
        the connected components of that fast-pair graph.  On System II this
        yields the NVLink pairs; on Systems III/IV the node-local cliques;
        on a uniform/fully-connected fabric the whole group is one island.

        Islands preserve member order and are ordered by first member.
        """
        names = list(names)
        if len(names) <= 1:
            return [names] if names else []
        key = tuple(names)
        cached = self._island_cache.get(key)
        if cached is None:
            cache = self._bw_cache
            pairs = list(itertools.combinations(range(len(names)), 2))
            pair_bw = []
            top = 0.0  # bandwidths are positive (add_link)
            for i, j in pairs:
                a, b = names[i], names[j]
                stats = cache.get((a, b) if a <= b else (b, a))
                if stats is None:
                    stats = self.path_stats(a, b)
                pair_bw.append(stats[0])
                if stats[0] > top:
                    top = stats[0]
            threshold = top * ISLAND_RATIO
            # union-find over member positions: ``root[i] <= i``, a root
            # is its component's first member
            root = list(range(len(names)))
            for (i, j), bw in zip(pairs, pair_bw):
                if bw >= threshold:
                    while root[i] != i:
                        i = root[i]
                    while root[j] != j:
                        j = root[j]
                    root[max(i, j)] = min(i, j)
            groups: Dict[int, List[str]] = {}
            for i, n in enumerate(names):  # root[root[i]] is final already
                r = root[i] = root[root[i]]
                groups.setdefault(r, []).append(n)
            cached = list(groups.values())
            self._island_cache[key] = cached
        return [list(g) for g in cached]

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    @staticmethod
    def fully_connected(
        names: List[str], link: LinkType = LinkType.NVLINK, **kw
    ) -> "Topology":
        """All-pairs direct links (System I style, Fig 9a)."""
        topo = Topology()
        for n in names:
            topo.add_device(n)
        for a, b in itertools.combinations(names, 2):
            topo.add_link(a, b, link, **kw)
        return topo

    @staticmethod
    def pairwise_nvlink(names: List[str]) -> "Topology":
        """NVLink between adjacent even/odd pairs, PCIe elsewhere (Fig 9b).

        GPUs (0,1), (2,3), ... get NVLink; every other pair talks over PCIe.
        """
        topo = Topology()
        for n in names:
            topo.add_device(n)
        for a, b in itertools.combinations(names, 2):
            ia, ib = names.index(a), names.index(b)
            if ia // 2 == ib // 2:
                topo.add_link(a, b, LinkType.NVLINK)
            else:
                topo.add_link(a, b, LinkType.PCIE)
        return topo

    @staticmethod
    def multi_node(
        node_devices: List[List[str]],
        intra_link: LinkType = LinkType.NVLINK,
        inter_link: LinkType = LinkType.INFINIBAND,
        dragonfly_group_size: int = 4,
    ) -> "Topology":
        """Multi-node cluster: intra-node clique + dragonfly inter-node fabric.

        The dragonfly arranges nodes into groups of ``dragonfly_group_size``;
        nodes within a group are fully connected at the NIC rate and each
        group pair is bridged by one global link at the same rate (bandwidth
        tapering of real dragonflies is approximated by routing all
        group-to-group traffic through the single global link).
        """
        topo = Topology()
        for devs in node_devices:
            for d in devs:
                topo.add_device(d)
            for a, b in itertools.combinations(devs, 2):
                topo.add_link(a, b, intra_link)
        n_nodes = len(node_devices)
        gateway = [devs[0] for devs in node_devices]  # NIC attach point per node
        groups: List[List[int]] = [
            list(range(g, min(g + dragonfly_group_size, n_nodes)))
            for g in range(0, n_nodes, dragonfly_group_size)
        ]
        # intra-group: full mesh of node gateways
        for grp in groups:
            for i, j in itertools.combinations(grp, 2):
                topo.add_link(gateway[i], gateway[j], inter_link)
        # inter-group: one global link between the lead nodes of each group
        for gi, gj in itertools.combinations(range(len(groups)), 2):
            a = gateway[groups[gi][0]]
            b = gateway[groups[gj][0]]
            if not topo.has_direct_link(a, b):
                topo.add_link(a, b, inter_link)
        return topo
