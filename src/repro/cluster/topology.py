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

    Every query reads one derived table, a route row per source device:
    one breadth-first search from it (:meth:`_row`), kept until the link
    graph changes, mapping each reachable device to its bottleneck
    bandwidth, the latency summed from the source and its previous hop on
    the hop-count shortest path.  A kept row holds its source, so it is
    never empty: ``rows.get(src) or self._row(src)`` costs a hit no frame,
    and ``row.get(dst) or self.path_stats(...)`` enters ``path_stats``
    only for an unreachable pair, which raises.  A pair's latency is read
    from its smaller name's row (:meth:`path_stats`); its bandwidth, a
    minimum, reads alike from either end on every preset, where each pair
    has one shortest path.

    The graph also keeps :attr:`prices`, the one memo of everything the
    cost models over it derive (``repro.comm.cost``).  Every edit
    (:meth:`add_link`, :meth:`scale_link`, :meth:`restore_links`) replaces
    the route rows and the prices with fresh dicts *after* it changes the
    graph, so a reader that took a dict before an edit writes only into
    one nobody reads again.
    """

    def __init__(self) -> None:
        #: device -> {neighbour -> link attributes}, both in insertion
        #: order; the two directions of a link share one attribute dict
        self._adj: Dict[str, Dict[str, Dict[str, Any]]] = {}
        #: source -> {destination -> (bandwidth, latency, previous hop)}
        self._rows: Dict[str, Dict[str, Tuple[float, float, Optional[str]]]] = {}
        #: query or probe key -> value, for every ``CostModel`` over this
        #: graph; read and written only by ``repro.comm.cost``
        self.prices: Dict[tuple, Any] = {}

    def _invalidate(self) -> None:
        self._rows = {}
        self.prices = {}

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

    def _row(self, src: str) -> Dict[str, Tuple[float, float, Optional[str]]]:
        """``src``'s route row: one breadth-first search, neighbours in
        link-insertion order (``tests/test_cluster_topology.py`` holds the
        path it picks against the graph library's single-source search).
        Each entry's bandwidth is its path's minimum link bandwidth and its
        latency the link latencies summed from ``src`` outward.  A device
        the graph does not hold has an empty row, which is not kept."""
        adj = self._adj
        if src not in adj:
            return {}
        rows = self._rows  # taken before the walk: see the class docstring
        row = {src: (math.inf, 0.0, None)}
        reached = [src]
        for v in reached:  # grows while it is read: the BFS queue
            if len(row) == len(adj):  # all reached: a clique stops at once
                break
            bw, lat, _ = row[v]
            for w, edge in adj[v].items():
                if w not in row:
                    link_bw = edge["bandwidth"]
                    row[w] = (link_bw if link_bw < bw else bw,
                              lat + edge["latency"], v)
                    reached.append(w)
        rows[src] = row
        return row

    def path_stats(self, a: str, b: str) -> Tuple[float, float]:
        """Return ``(bottleneck_bandwidth, total_latency)`` between two devices.

        Uses the hop-count shortest path; the effective bandwidth is the
        minimum link bandwidth on the path and the latency is the sum.
        Both directions of a pair read its smaller name's row, so which of
        equally short paths prices it does not depend on who asked first.
        """
        if a == b:
            return float("inf"), 0.0
        if b < a:
            a, b = b, a
        entry = (self._rows.get(a) or self._row(a)).get(b)
        if entry is None:
            raise ValueError(f"no interconnect path between {a} and {b}")
        return entry[0], entry[1]

    def bandwidth(self, a: str, b: str) -> float:
        return self.path_stats(a, b)[0]

    def shortest_path(self, a: str, b: str) -> List[str]:
        """Hop-count shortest path ``a -> b``: ``a``'s row walked back from
        ``b`` along its previous hops."""
        row = self._rows.get(a) or self._row(a)
        if b not in row:
            raise ValueError(f"no interconnect path between {a} and {b}")
        path = []
        n: Optional[str] = b
        while n is not None:
            path.append(n)
            n = row[n][2]
        path.reverse()
        return path

    def ring_stats(self, names: List[str]) -> Tuple[float, float]:
        """Contention-aware ``(bottleneck bandwidth, latency sum)`` of the
        directed ring ``names[0] -> names[1] -> ... -> names[0]``.

        Hops are routed over their shortest paths and every *directed*
        physical link divides its bandwidth by the number of ring hops that
        traverse it.  A ring that re-crosses the same bridge link in the same
        direction (an interleaved multi-node ordering, or members routed
        through a shared gateway) is throttled accordingly — this is what
        makes the topology-aware member ordering of :meth:`order_ring`
        matter.  Links are full duplex: the two directions of one physical
        link do not contend (so a 2-ring costs one traversal).
        """
        if len(names) < 2:
            return float("inf"), 0.0
        adj = self._adj
        load: Dict[Tuple[str, str], int] = {}
        lat = 0.0
        for a, b in zip(names, names[1:] + names[:1]):
            path = self.shortest_path(a, b)
            for u, v in zip(path, path[1:]):
                load[(u, v)] = load.get((u, v), 0) + 1
                lat += adj[u][v]["latency"]
        bw = math.inf
        for (u, v), uses in load.items():  # a loop: no generator frame
            share = adj[u][v]["bandwidth"] / uses
            if share < bw:
                bw = share
        return bw, lat

    def pairwise_stats(self, names: List[str]) -> Tuple[float, float]:
        """``(lowest bandwidth, highest latency)`` over every pair of
        ``names``: :meth:`path_stats` folded over the pairs in one walk,
        each pair read from its smaller name's row."""
        rows = self._rows
        bw = math.inf
        lat = 0.0
        for a in names:
            row = rows.get(a) or self._row(a)
            for b in names:
                if a < b:
                    stats = row.get(b) or self.path_stats(a, b)
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
        rows = self._rows
        order = [names[0]]
        remaining = list(names[1:])
        while remaining:
            cur = order[-1]
            row = rows.get(cur) or self._row(cur)
            best, best_bw = 0, -1.0
            for i, n in enumerate(remaining):
                stats = row.get(n) or self.path_stats(cur, n)
                if stats[0] > best_bw:  # the first of the fastest
                    best, best_bw = i, stats[0]
            order.append(remaining.pop(best))
        return order

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
        rows = self._rows
        pair_bw = []  # in ``combinations(range(len(names)), 2)`` order
        top = 0.0  # bandwidths are positive (add_link)
        for i, a in enumerate(names):
            row = rows.get(a) or self._row(a)
            for b in names[i + 1:]:
                stats = row.get(b) or self.path_stats(a, b)
                pair_bw.append(stats[0])
                if stats[0] > top:
                    top = stats[0]
        threshold = top * ISLAND_RATIO
        # union-find over member positions: ``root[i] <= i``, a root
        # is its component's first member
        root = list(range(len(names)))
        pairs = itertools.combinations(range(len(names)), 2)
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
        return list(groups.values())

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
