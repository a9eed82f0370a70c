"""Alpha-beta cost model for collectives over a topology.

Each collective call is priced by an explicit *algorithm* over the actual
topology graph; the cost of a call over a group is::

    time = alpha * steps + latency_term + data_term(bandwidths)

Three algorithm families price the selectable ops (``all_reduce`` /
``all_gather`` / ``reduce_scatter`` / ``broadcast`` / ``reduce``, the last
running its mirror, the broadcast schedule), through two evaluators:

``ring`` and ``tree`` (:meth:`CostModel._flat`)
    One level, ``steps·α + latency + coef·n / eff(bw)``.  The ring is the
    pipelined flat ring (NCCL default): members are reordered along
    high-bandwidth edges (:meth:`Topology.order_ring`) and the ring is
    priced contention-aware (:meth:`Topology.ring_stats`), hops sharing the
    physical links their shortest paths traverse.  This single rule is what
    makes System II (PCIe between distant GPUs) slow for group-wide
    collectives while leaving adjacent-pair traffic at NVLink speed — the
    mechanism behind the paper's Fig 10/11.  The tree is latency-optimal
    recursive halving / doubling and a binomial broadcast: ``O(log p)``
    rounds instead of ``O(p)`` steps, at the price of unpipelined transfers
    and a worst-pair bandwidth bound.  Wins for small messages.

``hierarchical`` (:meth:`CostModel._two_level`)
    The NCCL-style two-level schedule for asymmetric fabrics.  The group is
    partitioned into fast-link islands (:meth:`Topology.islands` at its one
    threshold: NVLink cliques on System II, node-local cliques on Systems
    III/IV).  All-reduce and reduce-scatter go intra-island first,
    all-gather and broadcast cross the bridge first.  Phases are
    chunk-pipelined: each pays its bandwidth-ramp *fill* once, while the
    steady-state data term is the *max* of the phase rates, so most bytes
    never leave fast links.  Wins for large messages on island topologies
    (Fig 10/11's System II).  A one-island group has no bridge to cross and
    prices as the flat ring, labelled ``hierarchical``.

Wire accounting (``wire_bytes``, totalled over ranks) follows each
algorithm's own volume; for allreduce/reduce-scatter/broadcast every family
moves the same total bytes (e.g. ``2(p-1)n`` for allreduce), they differ in
*where* those bytes flow.

=================  ============================  =======================
collective         time (ring beta, per rank)    total wire bytes (ring)
=================  ============================  =======================
allreduce (ring)   2(p-1)/p * n / bw             2(p-1) * n
allgather (ring)   (p-1) * n_local / bw          p(p-1) * n_local
reducescatter      (p-1)/p * n / bw              (p-1) * n
broadcast (ring)   n / bw (pipelined)            (p-1) * n
reduce (ring)      n / bw (pipelined)            (p-1) * n
all_to_all         (p-1)/p * n / bw              (p-1) * n
p2p                n / bw(a,b)                   n
ring_pass          n / bw(slowest hop)           p * n
=================  ============================  =======================

``algorithm="auto"`` prices the call under every family at the byte count
asked and takes the cheapest, the first in :data:`ALGORITHMS` order on a
tie, so it is never worse than the flat ring.  Only simulated seconds/wire
accounting depend on the algorithm; collective *results* are combined
identically in every case.

A :class:`CollectiveCost` is a pure function of the query, of the link
graph and of the cluster's ``alpha`` and ``bw_ramp_time``, so a distinct
query is priced once per link graph: the family costs and their ``auto``
minimum (``_op_cost``), the direct queries (all-to-all, barrier, p2p,
ring pass, host transfer) and the topology probes all read and write the
graph's one memo, ``Topology.prices``, which every model
over the cluster shares.  A :class:`CostModel` keeps no memo of its own.
A warm round runs no formula and walks no link; a link edit replaces the
memo whole, so the next round prices afresh.

Every cost formula is written here once: the underscore probes say where
link numbers come from (a subclass may override only those), and
:data:`OP_PRICE` maps each op a communicator issues to its formula.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.machine import ClusterSpec

#: the algorithm families, in tie-break preference order
ALGORITHMS = ("ring", "tree", "hierarchical")

#: collectives with more than one implemented algorithm, the only ops
#: ``CostModel.price`` takes; every other op (all_to_all,
#: barrier, p2p) has a single schedule and its own method.
SELECTABLE_OPS = frozenset(
    {"all_reduce", "all_gather", "reduce_scatter", "broadcast", "reduce"}
)


def check_algorithm(algorithm: str) -> None:
    """The one check of an algorithm name, wherever it is set or asked for."""
    valid = ALGORITHMS + ("auto",)
    if algorithm not in valid:
        raise ValueError(f"unknown collective algorithm {algorithm!r}: "
                         f"comm_algorithm must be one of {valid}")


@dataclass(frozen=True)
class CollectiveCost:
    """Result of a cost query: simulated seconds, wire traffic and the
    algorithm that produced them."""

    seconds: float
    wire_bytes: int
    algorithm: str = "ring"


_ZERO = CollectiveCost(0.0, 0)


def _memoised(walk: Callable) -> Callable:
    """Memoise a topology probe per ``(probe, *args)`` (the last argument is
    the rank sequence), in the link graph's one memo, ``Topology.prices``.

    A probe runs only when a query is priced for the first time over this
    link graph, by any model; its entry is what spares that first pricing
    the walk when the group is already known, e.g. a new byte count or
    another family on the same ranks.

    A racing writer is harmless: the memo is taken *before* the walk and
    the value goes into that dict, while ``Topology._invalidate`` replaces
    the memo *after* an edit, so a value computed across an edit lands in
    a dict no reader sees again.  Each price method keeps the same rule.
    """
    name = walk.__name__

    @functools.wraps(walk)
    def probe(self: "CostModel", *args: Any) -> Any:
        memo = self.cluster.topology.prices
        key = (name, *args[:-1], tuple(args[-1]))
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = walk(self, *args)
            return value

    return probe


class CostModel:
    """Collective/p2p cost queries bound to one cluster: a stateless view
    of its link graph's price memo, so any number of models over one
    cluster price each query once between them.

    ``algorithm`` is the default family for selectable collectives
    (``"ring" | "tree" | "hierarchical" | "auto"``); every collective method
    also takes a per-call ``algorithm=`` override.
    """

    def __init__(self, cluster: ClusterSpec, algorithm: str = "ring") -> None:
        self.cluster = cluster
        self.alpha = cluster.alpha
        self.bw_ramp = getattr(cluster, "bw_ramp_time", 0.0)
        check_algorithm(algorithm)
        self.algorithm = algorithm

    def _eff(self, bw: float, nbytes: int) -> float:
        """Effective bandwidth after the NCCL-style message-size ramp: a
        link achieves half its peak for messages of ``bw * bw_ramp_time``
        bytes, so small payloads on fast links are protocol-bound."""
        if self.bw_ramp <= 0 or not math.isfinite(bw):
            return bw
        knee = bw * self.bw_ramp
        return bw * nbytes / (nbytes + knee)

    # -- helpers ---------------------------------------------------------------

    def _names(self, ranks: Sequence[int]) -> List[str]:
        return self.cluster.gpu_names(list(ranks))

    @_memoised
    def _ring(self, ranks: Sequence[int]) -> Tuple[float, float]:
        """(contention-aware bottleneck bandwidth, summed latency) of the
        group's topology-aware ring ordering."""
        topo = self.cluster.topology
        names = topo.order_ring(self._names(ranks))
        return topo.ring_stats(names)

    @_memoised
    def _pairwise(self, ranks: Sequence[int]) -> Tuple[float, float]:
        """(worst pair bandwidth, worst pair latency) — the per-round bound
        of recursive halving/doubling, whose partners span every distance,
        and of the personalized all-to-all."""
        return self.cluster.topology.pairwise_stats(self._names(ranks))

    def _path(self, src: int, dst: int) -> Tuple[float, float]:
        """(bandwidth, latency) of the link path between two ranks; read
        by :meth:`p2p` on a memo miss only."""
        gpus = self.cluster.gpus
        return self.cluster.topology.path_stats(gpus[src].name, gpus[dst].name)

    @_memoised
    def _islands(self, ranks: Sequence[int]) -> Tuple[Tuple[str, ...], ...]:
        """Fast-link islands of the group (:meth:`Topology.islands` at its
        one threshold), as (hashable, shared) tuples."""
        islands = self.cluster.topology.islands(self._names(ranks))
        return tuple(tuple(g) for g in islands)

    def _phase(
        self, send_bytes: float, buffer_bytes: float, bw: float
    ) -> Tuple[float, float]:
        """(pipeline-fill startup, steady-state data seconds) of one phase
        of a chunk-pipelined multi-phase schedule.

        Chunks stream through consecutive phases, so the total data term of
        a schedule is the *sum* of the per-phase startups (each phase's
        bandwidth ramp must fill once) plus the *max* of the per-phase
        steady-state terms (the slowest phase gates the pipeline).  The
        startup equals the fraction of the buffer this phase moves times
        the cluster's ``bw_ramp_time`` — the same decomposition
        ``n/eff(bw, n) = n/bw + ramp`` that a single-phase ring pays.
        """
        if send_bytes <= 0 or buffer_bytes <= 0:
            return 0.0, 0.0
        slope = send_bytes / bw if math.isfinite(bw) else 0.0
        return (send_bytes / buffer_bytes) * self.bw_ramp, slope

    @_memoised
    def _island_phases(
        self, islands: Sequence[Sequence[str]]
    ) -> Tuple[List[Tuple[int, float, float]], float, float, int, int]:
        """Per-island ring stats plus the inter-island leader-ring stats.

        Returns ``(intra, bridge_bw, bridge_lat, k, s)`` where ``intra`` is a
        list of ``(size, ring_bw, ring_lat)`` for the multi-member islands,
        ``k`` the island count and ``s`` the smallest island size (the
        number of shard rails driving the bridge concurrently).
        """
        topo = self.cluster.topology
        intra = []
        for g in islands:
            if len(g) > 1:
                bw, lat = topo.ring_stats(topo.order_ring(list(g)))
                intra.append((len(g), bw, lat))
        leaders = topo.order_ring([g[0] for g in islands])
        bridge_bw, bridge_lat = topo.ring_stats(leaders)
        k = len(islands)
        s = min(len(g) for g in islands)
        return intra, bridge_bw, bridge_lat, k, s

    # -- dispatch ----------------------------------------------------------------

    def price(
        self, op: str, ranks: Sequence[int], nbytes: int,
        algorithm: Optional[str] = None,
    ) -> CollectiveCost:
        """Cost of selectable collective ``op`` under ``algorithm`` (default
        the model's): reads :meth:`_op_cost`'s memo entry inline, ``auto``
        like a fixed family, and enters it on a miss only."""
        if len(ranks) < 2 or nbytes == 0:
            return _ZERO
        algo = algorithm if algorithm is not None else self.algorithm
        cost = self.cluster.topology.prices.get((op, tuple(ranks), nbytes, algo))
        if cost is not None:
            return cost
        return self._op_cost(op, ranks, nbytes, algo)

    def _op_cost(
        self, op: str, ranks: Sequence[int], nbytes: int, algo: str
    ) -> CollectiveCost:
        """Cost of ``op`` under ``algo``, priced once per distinct query:
        ``auto`` is the cheapest family at this byte count (the first in
        :data:`ALGORITHMS` order on a tie), a hierarchical schedule over two
        or more islands is :meth:`_two_level`, everything else
        :meth:`_flat`.  ``reduce`` runs its mirror, the broadcast schedule."""
        memo = self.cluster.topology.prices
        group = tuple(ranks)
        key = (op, group, nbytes, algo)
        cost = memo.get(key)
        if cost is not None:
            return cost
        _check_nbytes(op, nbytes)
        check_algorithm(algo)
        if op not in SELECTABLE_OPS:
            raise ValueError(
                f"cannot price {op!r} by algorithm: price() takes one of "
                f"SELECTABLE_OPS {sorted(SELECTABLE_OPS)}")
        shape = "broadcast" if op == "reduce" else op
        if algo == "auto":
            for family in ALGORITHMS:
                priced = memo.get((op, group, nbytes, family))
                if priced is None:
                    priced = self._op_cost(op, ranks, nbytes, family)
                if cost is None or priced.seconds < cost.seconds:
                    cost = priced
        elif algo == "hierarchical" and len(self._islands(ranks)) > 1:
            cost = self._two_level(shape, ranks, nbytes)
        else:
            cost = self._flat(shape, ranks, nbytes, algo)
        memo[key] = cost
        return cost

    def _flat(
        self, op: str, ranks: Sequence[int], nbytes: int, algo: str
    ) -> CollectiveCost:
        """One-level schedule: ``steps·α + latency + coef·n / eff(bw, ramp)``.

        The ring (and a one-island group under ``hierarchical``, which has
        no bridge to cross) takes the contention-aware ring's bandwidth and
        summed latency and pipelines its ``steps`` hops.  The tree takes the
        worst member pair: recursive halving / doubling runs ``ceil(log2 p)``
        rounds of ``α + latency`` per phase (two phases for all-reduce), and
        charges the bandwidth ramp once on the aggregate volume, the eager
        protocol's assumption; the binomial broadcast forwards the whole
        payload at every level, unpipelined.  Per op, ``n`` is the payload
        (all-gather: each member's shard, ramping at the gathered ``p·n``):

        ==============  ===========  ==========  ===========
        op              ring steps   coef        wire bytes
        ==============  ===========  ==========  ===========
        all_reduce      2(p-1)       2(p-1)/p    2(p-1)·n
        all_gather      p-1          p-1         p(p-1)·n
        reduce_scatter  p-1          (p-1)/p     (p-1)·n
        broadcast       p            1           (p-1)·n
        ==============  ===========  ==========  ===========
        """
        p = len(ranks)
        if op == "all_reduce":
            steps, coef, ramp, wire = 2 * (p - 1), 2 * (p - 1) / p, nbytes, 2 * (p - 1) * nbytes
        elif op == "all_gather":
            steps, coef, ramp, wire = p - 1, p - 1, p * nbytes, p * (p - 1) * nbytes
        elif op == "reduce_scatter":
            steps, coef, ramp, wire = p - 1, (p - 1) / p, nbytes, (p - 1) * nbytes
        else:  # broadcast: _op_cost refuses every op outside SELECTABLE_OPS
            steps, coef, ramp, wire = p, 1, nbytes, (p - 1) * nbytes
        if algo != "tree":
            bw, lat = self._ring(ranks)
            seconds = steps * self.alpha + lat + coef * nbytes / self._eff(bw, ramp)
            return CollectiveCost(seconds, wire, algo)
        bw, lat = self._pairwise(ranks)
        rounds = math.ceil(math.log2(p)) * (2 if op == "all_reduce" else 1)
        if op == "broadcast":
            seconds = rounds * (self.alpha + lat + nbytes / self._eff(bw, nbytes))
        else:
            seconds = rounds * (self.alpha + lat) + coef * nbytes / self._eff(bw, ramp)
        return CollectiveCost(seconds, wire, algo)

    def _two_level(
        self, op: str, ranks: Sequence[int], nbytes: int
    ) -> CollectiveCost:
        """Hierarchical schedule over two or more fast-link islands.

        All-reduce and reduce-scatter go *intra-island first*: a
        reduce-scatter inside every island over its own ring, then the ``s``
        shard rails (``s`` = smallest island) exchange their ``n/s`` shards
        over the slow bridge concurrently; all-reduce all-gathers back inside
        the islands, so it pays the intra phase twice.  All-gather and
        broadcast go *bridge first*: the leaders (one per rail for
        all-gather) cross the bridge, then every island fans out over its own
        ring.  The phases are chunk-pipelined (:meth:`_phase`): startups add
        up and the slowest steady-state slope gates the schedule.
        """
        p = len(ranks)
        islands = self._islands(ranks)
        intra, bridge_bw, bridge_lat, k, s = self._island_phases(islands)
        max_s = max(len(g) for g in islands)
        intra_lat = max((lat for _sz, _bw, lat in intra), default=0.0)
        intra_first = op == "all_reduce" or op == "reduce_scatter"
        if intra_first:
            twice = 2 if op == "all_reduce" else 1
            shard = nbytes / s
            phases = [
                self._phase((sz - 1) / sz * nbytes, nbytes, bw) for sz, bw, _lat in intra
            ]
            su_bridge, sl_bridge = self._phase(twice * (k - 1) / k * shard, shard, bridge_bw)
            steps = twice * (max_s - 1) + twice * (k - 1)
            wire = twice * (p - k) * nbytes + twice * (k - 1) * nbytes
        elif op == "all_gather":
            su_bridge, sl_bridge = self._phase((k - 1) * nbytes, k * nbytes, bridge_bw)
            phases = [
                self._phase((sz - 1) * k * nbytes, sz * k * nbytes, bw)
                for sz, bw, _lat in intra
            ]
            steps = (k - 1) + (max_s - 1)
            wire = s * k * (k - 1) * nbytes + k * nbytes * sum(
                len(g) * (len(g) - 1) for g in islands
            )
        else:  # broadcast
            su_bridge, sl_bridge = self._phase(nbytes, nbytes, bridge_bw)
            phases = [self._phase(nbytes, nbytes, bw) for _sz, bw, _lat in intra]
            steps = k + max_s
            wire = (k - 1) * nbytes + (p - k) * nbytes
        su_intra = max((su for su, _sl in phases), default=0.0)
        sl_intra = max((sl for _su, sl in phases), default=0.0)
        if intra_first:
            seconds = (
                steps * self.alpha
                + twice * intra_lat + bridge_lat
                + twice * su_intra + su_bridge
                + max(sl_intra, sl_bridge)
            )
        else:
            seconds = (
                steps * self.alpha
                + bridge_lat + intra_lat
                + su_bridge + su_intra
                + max(sl_bridge, sl_intra)
            )
        return CollectiveCost(seconds, wire, "hierarchical")

    # -- collectives ------------------------------------------------------------

    def allreduce(
        self, ranks: Sequence[int], nbytes: int, algorithm: Optional[str] = None
    ) -> CollectiveCost:
        return self.price("all_reduce", ranks, int(nbytes), algorithm)

    def allgather(
        self, ranks: Sequence[int], nbytes_local: int, algorithm: Optional[str] = None
    ) -> CollectiveCost:
        return self.price("all_gather", ranks, int(nbytes_local), algorithm)

    def reduce_scatter(
        self, ranks: Sequence[int], nbytes_in: int, algorithm: Optional[str] = None
    ) -> CollectiveCost:
        return self.price("reduce_scatter", ranks, int(nbytes_in), algorithm)

    def broadcast(
        self, ranks: Sequence[int], nbytes: int, algorithm: Optional[str] = None
    ) -> CollectiveCost:
        return self.price("broadcast", ranks, int(nbytes), algorithm)

    def reduce(
        self, ranks: Sequence[int], nbytes: int, algorithm: Optional[str] = None
    ) -> CollectiveCost:
        return self.price("reduce", ranks, int(nbytes), algorithm)

    # -- direct queries: one schedule each, priced once per key like _op_cost

    def all_to_all(self, ranks: Sequence[int], nbytes_local: int) -> CollectiveCost:
        p = len(ranks)
        if p < 2 or nbytes_local == 0:
            return _ZERO
        memo = self.cluster.topology.prices
        key = ("all_to_all", tuple(ranks), nbytes_local)
        cost = memo.get(key)
        if cost is not None:
            return cost
        _check_nbytes("all_to_all", nbytes_local)
        bw, lat = self._pairwise(ranks)
        seconds = (
            (p - 1) * self.alpha + lat
            + ((p - 1) / p) * nbytes_local / self._eff(bw, nbytes_local)
        )
        cost = memo[key] = CollectiveCost(seconds, (p - 1) * nbytes_local, "direct")
        return cost

    def barrier(self, ranks: Sequence[int]) -> CollectiveCost:
        p = len(ranks)
        if p < 2:
            return _ZERO
        memo = self.cluster.topology.prices
        key = ("barrier", p)
        cost = memo.get(key)
        if cost is None:
            cost = memo[key] = CollectiveCost(
                self.alpha * math.ceil(math.log2(p)), 0, "tree")
        return cost

    def p2p(self, src: int, dst: int, nbytes: int) -> CollectiveCost:
        if nbytes == 0 or src == dst:
            return _ZERO
        memo = self.cluster.topology.prices
        key = ("p2p", src, dst, nbytes)
        cost = memo.get(key)
        if cost is not None:
            return cost
        _check_nbytes("p2p", nbytes)
        bw, lat = self._path(src, dst)
        cost = memo[key] = CollectiveCost(
            self.alpha + lat + nbytes / self._eff(bw, nbytes), nbytes, "direct"
        )
        return cost

    def ring_pass(self, ranks: Sequence[int], nbytes: int,
                  shift: int = 1) -> CollectiveCost:
        """Every member sends ``nbytes`` to the one ``shift`` places on, all
        at once: the slowest hop's seconds, every hop's bytes."""
        memo = self.cluster.topology.prices
        key = ("ring_pass", tuple(ranks), nbytes, shift)
        cost = memo.get(key)
        if cost is None:
            _check_nbytes("ring_pass", nbytes)
            hops = [self.p2p(r, ranks[(i + shift) % len(ranks)], nbytes)
                    for i, r in enumerate(ranks)]
            cost = memo[key] = CollectiveCost(
                max([h.seconds for h in hops]), sum([h.wire_bytes for h in hops]))
        return cost

    def host_transfer(self, rank: int, nbytes: int) -> CollectiveCost:
        """CPU <-> GPU transfer (offloading traffic)."""
        if nbytes == 0:
            return _ZERO
        memo = self.cluster.topology.prices
        key = ("host_transfer", rank, nbytes)
        cost = memo.get(key)
        if cost is not None:
            return cost
        _check_nbytes("host_transfer", nbytes)
        bw = self.cluster.h2d_bandwidth(rank)
        cost = memo[key] = CollectiveCost(
            self.alpha + nbytes / self._eff(bw, nbytes), nbytes, "direct"
        )
        return cost


def _check_nbytes(query: str, nbytes: int) -> None:
    """Refuse to price a negative byte count; called on a memo miss only, so
    a hit pays nothing for it."""
    if nbytes < 0:
        raise ValueError(f"{query}: cannot price a negative byte count ({nbytes})")


#: ``op -> (model, ranks, nbytes, algorithm) -> cost`` for the replay, the
#: compiler and the control-plane ops (which ignore ``nbytes``)
OP_PRICE: Dict[str, Callable[
    [CostModel, Sequence[int], int, Optional[str]], CollectiveCost]] = {
    "all_reduce": CostModel.allreduce,
    "all_gather": CostModel.allgather,
    "reduce_scatter": CostModel.reduce_scatter,
    "broadcast": CostModel.broadcast,
    "reduce": CostModel.reduce,
    "all_to_all": lambda m, ranks, n, algo: m.all_to_all(ranks, n),
    "barrier": lambda m, ranks, n, algo: m.barrier(ranks),
    "ring_pass": lambda m, ranks, n, algo: m.ring_pass(ranks, n),
    "split": lambda m, ranks, n, algo: CollectiveCost(m.alpha, 0),
}
