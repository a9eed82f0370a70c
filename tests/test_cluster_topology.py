"""Tests for interconnect topologies and bandwidth probing (Fig 9/10)."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    LinkType,
    Topology,
    system_i,
    system_ii,
    system_iii,
    system_iv,
    uniform_cluster,
)
from repro.cluster.topology import ISLAND_RATIO
from repro.comm import Communicator, SpecArray
from repro.comm.cost import CostModel
from repro.cluster.bandwidth import (
    DEFAULT_PROBE_BYTES,
    measure_allreduce_bandwidth,
    measure_broadcast_bandwidth,
    measure_p2p_bandwidth,
)
from repro.runtime import SpmdRuntime
from repro.utils.units import GB, MB


class TestTopology:
    def test_direct_link(self):
        t = Topology()
        t.add_device("a")
        t.add_device("b")
        t.add_link("a", "b", LinkType.NVLINK)
        assert t.has_direct_link("a", "b")
        assert t.link_type("a", "b") == LinkType.NVLINK

    def test_path_bottleneck(self):
        t = Topology()
        for n in ("a", "b", "c"):
            t.add_device(n)
        t.add_link("a", "b", LinkType.NVLINK)
        t.add_link("b", "c", LinkType.PCIE)
        bw, lat = t.path_stats("a", "c")
        assert bw == pytest.approx(16 * GB)  # PCIe limits the path
        assert lat > 0

    def test_self_bandwidth_infinite(self):
        t = Topology.fully_connected(["a", "b"])
        assert t.bandwidth("a", "a") == float("inf")

    def test_no_path_raises(self):
        t = Topology()
        t.add_device("a")
        t.add_device("b")
        with pytest.raises(ValueError):
            t.path_stats("a", "b")

    def test_custom_bandwidth_override(self):
        t = Topology()
        t.add_device("a")
        t.add_device("b")
        t.add_link("a", "b", LinkType.NVLINK, bandwidth=1.0)
        assert t.bandwidth("a", "b") == 1.0

    def test_ring_bandwidth_uses_ring_edges_only(self):
        t = Topology.pairwise_nvlink(["g0", "g1", "g2", "g3"])
        # ring g0-g1-g2-g3-g0 crosses PCIe at g1-g2 and g3-g0
        assert t.ring_stats(["g0", "g1", "g2", "g3"])[0] == pytest.approx(16 * GB)
        # pair ring stays on NVLink
        assert t.ring_stats(["g0", "g1"])[0] > 100 * GB

    def test_fully_connected_builder(self):
        t = Topology.fully_connected([f"g{i}" for i in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                assert t.has_direct_link(f"g{i}", f"g{j}")

    def test_multi_node_builder(self):
        t = Topology.multi_node([["a0", "a1"], ["b0", "b1"], ["c0", "c1"]])
        assert t.link_type("a0", "a1") == LinkType.NVLINK
        # cross-node routes through gateways at the NIC rate
        assert t.bandwidth("a1", "b1") == pytest.approx(25 * GB)

    def test_dragonfly_grouping(self):
        nodes = [[f"n{i}"] for i in range(8)]
        t = Topology.multi_node(nodes, dragonfly_group_size=4)
        # intra-group gateways directly linked
        assert t.has_direct_link("n0", "n1")
        # inter-group: only the group leads
        assert t.has_direct_link("n0", "n4")
        assert not t.has_direct_link("n1", "n5")
        # but a path exists
        assert t.bandwidth("n1", "n5") > 0

    def test_readded_link_forgets_its_degradation(self):
        t = Topology()
        t.add_link("a", "b", LinkType.PCIE)
        t.scale_link("a", "b", 0.5)
        t.add_link("a", "b", LinkType.NVLINK)
        t.scale_link("a", "b", 0.5)
        assert t.bandwidth("a", "b") == 100 * GB
        t.restore_links()
        assert t.bandwidth("a", "b") == 200 * GB

    def test_pair_price_does_not_depend_on_query_direction(self):
        """Two equally short routes, NVLink through ``x`` and PCIe through
        ``y``: rank threads ask for a pair in either direction, in any
        order, and must all read one price."""

        def diamond():
            t = Topology()
            t.add_link("a", "x", LinkType.NVLINK)
            t.add_link("y", "b", LinkType.PCIE)
            t.add_link("a", "y", LinkType.PCIE)
            t.add_link("x", "b", LinkType.NVLINK)
            return t

        asked_forward, asked_backward = diamond(), diamond()
        asked_backward.path_stats("b", "a")
        assert asked_forward.path_stats("a", "b") == \
            asked_backward.path_stats("a", "b")

    def test_links_lists_each_link_once_in_insertion_order(self):
        t = Topology.pairwise_nvlink(["g0", "g1", "g2"])
        assert t.links() == [("g0", "g1"), ("g0", "g2"), ("g1", "g2")]

    @pytest.mark.parametrize("bandwidth, latency", [
        (-1e9, None), (0.0, None), (math.nan, None),
        (None, -1.0), (None, math.nan), (None, math.inf)])
    def test_bad_link_rejected(self, bandwidth, latency):
        """A link with no positive bandwidth or no finite non-negative
        latency would price a collective negative, NaN or by a division by
        zero."""
        cluster = uniform_cluster(4)
        with pytest.raises(ValueError, match="gpu0 <-> gpu1"):
            cluster.topology.add_link("gpu0", "gpu1", LinkType.NVLINK,
                                      bandwidth=bandwidth, latency=latency)
        cost = CostModel(cluster).allreduce([0, 1], 1 << 20)
        assert 0.0 < cost.seconds < 1e-3

    def test_nan_scale_factor_rejected(self):
        t = Topology.fully_connected(["a", "b"])
        with pytest.raises(ValueError):
            t.scale_link("a", "b", math.nan)
        assert t.bandwidth("a", "b") == 200 * GB


def test_route_searches_like_networkx():
    """``Topology._route`` against the reference it was ported from: the
    same path among equally short ones, for every ordered pair, and a
    ``ValueError`` exactly where networkx finds no path or no such node."""
    nx = pytest.importorskip("networkx")
    index = st.integers(0, 7)

    @settings(max_examples=200, deadline=None)
    @given(names=st.permutations("abcdefgh"), devices=st.integers(0, 8),
           links=st.lists(st.tuples(index, index), max_size=20))
    def check(names, devices, links):
        topo, graph = Topology(), nx.Graph()
        for name in names[:devices]:
            topo.add_device(name)
            graph.add_node(name)
        for i, j in links:
            topo.add_link(names[i], names[j], LinkType.PCIE)
            graph.add_edge(names[i], names[j])
        assert topo.links() == list(graph.edges)
        for a in names:
            for b in names:
                try:
                    want = nx.shortest_path(graph, a, b)
                except (nx.NetworkXNoPath, nx.NodeNotFound):
                    with pytest.raises(ValueError, match="no interconnect path"):
                        topo._route(a, b)
                else:
                    assert topo._route(a, b) == want

    check()


def _reference_islands(topo, names):
    """The pair-dict and union-find formulation the walk replaced."""
    names = list(names)
    if len(names) <= 1:
        return [names] if names else []
    pair_bw = {(a, b): topo.bandwidth(a, b)
               for a, b in itertools.combinations(names, 2)}
    threshold = max(pair_bw.values()) * ISLAND_RATIO
    parent = {n: n for n in names}

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    for (a, b), bw in pair_bw.items():
        if bw >= threshold:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for n in names:
        groups.setdefault(find(n), []).append(n)
    return list(groups.values())


def _reference_order_ring(topo, names):
    """The greedy ``max(..., key=lambda)`` formulation."""
    if len(names) <= 2:
        return list(names)
    index = {n: i for i, n in enumerate(names)}
    order, remaining = [names[0]], list(names[1:])
    while remaining:
        cur = order[-1]
        best = max(remaining, key=lambda n: (topo.bandwidth(cur, n), -index[n]))
        order.append(best)
        remaining.remove(best)
    return order


def _reference_pairwise(topo, names):
    bw, lat = math.inf, 0.0
    for a, b in itertools.combinations(names, 2):
        b_, l_ = topo.path_stats(a, b)
        bw = min(bw, b_)
        lat = max(lat, l_)
    return bw, lat


_SYSTEMS = {
    "I": system_i,
    "II": system_ii,
    "III": lambda: system_iii(n_nodes=4),
    "IV": system_iv,
}


@pytest.mark.parametrize("system", sorted(_SYSTEMS))
def test_walks_equal_their_reference(system):
    """``islands``, ``order_ring`` and ``pairwise_stats`` read the pair memo
    inline; on a cold topology and on one whose pairs are all cached they
    equal the formulations they replaced, on the preset and on a copy with
    one link degraded."""
    build = _SYSTEMS[system]
    n_gpus = len(build().gpus)
    n_links = len(build().topology.links())

    @settings(max_examples=25, deadline=None)
    @given(
        members=st.tuples(st.permutations(range(n_gpus)),
                          st.integers(0, n_gpus)).map(lambda p: p[0][:p[1]]),
        degrade=st.one_of(st.none(), st.tuples(
            st.integers(0, n_links - 1), st.sampled_from([0.01, 0.3, 0.6]))),
    )
    def check(members, degrade):
        topos = []
        for _ in range(2):
            cluster = build()
            topo = cluster.topology
            if degrade is not None:
                link, factor = degrade
                topo.scale_link(*topo.links()[link], factor)
            topos.append(topo)
        names = build().gpu_names(members)
        reference, walked = topos
        want = (_reference_islands(reference, names),
                _reference_order_ring(reference, names),
                _reference_pairwise(reference, names))
        walks = (lambda t: t.islands(names),
                 lambda t: t.order_ring(names),
                 lambda t: t.pairwise_stats(names))
        for i, walk in enumerate(walks):  # each walk cold, then warm
            walked._bw_cache.clear()
            walked._island_cache.clear()
            walked._order_cache.clear()
            assert walk(walked) == want[i]
            walked._island_cache.clear()
            walked._order_cache.clear()
            assert walk(walked) == want[i]
        # a warm topology: every pair the walks read is in the memo
        assert (walked.islands(names), walked.order_ring(names),
                walked.pairwise_stats(names)) == want

    check()


def _shortest_path_stats(topo, source):
    """Node -> every distinct ``(bottleneck bandwidth, latency)`` over the
    hop-count shortest paths from ``source``, latency summed from ``source``
    as :meth:`Topology.path_stats` sums it: one BFS, then the paths' values
    carried down the shortest-path DAG level by level."""
    adj = topo._adj
    dist, order = {source: 0}, [source]
    for v in order:
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                order.append(w)
    stats = {source: {(math.inf, 0.0)}}
    for v in order[1:]:
        stats[v] = {(min(bw, adj[u][v]["bandwidth"]), lat + adj[u][v]["latency"])
                    for u in adj[v] if dist[u] == dist[v] - 1 for bw, lat in stats[u]}
    return stats


def _ties(cluster, sources):
    """Pairs ``(a, b)``, ``a`` a source and ``a < b`` by name, whose shortest
    paths disagree on their stats or disagree with ``path_stats``."""
    topo, names = cluster.topology, [g.name for g in cluster.gpus]
    ties = []
    for a in sources:
        stats = _shortest_path_stats(topo, a)
        ties += [(a, b, sorted(stats[b])) for b in names
                 if a < b and stats[b] != {topo.path_stats(a, b)}]
    return ties


_TIE_SYSTEMS = {"I": system_i, "II": system_ii, "III-64": lambda: system_iii(n_nodes=16),
                "IV": system_iv, "III-1024-sampled": lambda: system_iii(n_nodes=256)}


@pytest.mark.parametrize("system", sorted(_TIE_SYSTEMS))
def test_equally_short_paths_price_a_pair_alike(system):
    """The tie law (ROADMAP item 28(a)): on every GPU pair of a preset, each
    hop-count shortest path gives the same (bandwidth, latency summed from the
    pair's smaller name), and ``path_stats`` reads it.  So which of equally
    short paths ``_route`` picks never reaches a price, and one BFS per
    source can fill a row; a preset that gains a tie fails here by name.
    At 1024 GPUs, six sources spread over the world check the pairs they
    name first; the slow lane checks every pair."""
    cluster = _TIE_SYSTEMS[system]()
    gpus = cluster.gpus[::171] if system.endswith("sampled") else cluster.gpus
    assert _ties(cluster, [g.name for g in gpus]) == []


@pytest.mark.slow
def test_equally_short_paths_price_a_pair_alike_at_1024_gpus():
    cluster = system_iii(n_nodes=256)
    assert _ties(cluster, [g.name for g in cluster.gpus]) == []


class TestIslandsAndRings:
    """Topology-aware helpers behind the collective algorithm layer."""

    def test_islands_system_ii_nvlink_pairs(self):
        c = system_ii()
        groups = c.topology.islands(c.gpu_names())
        assert groups == [
            ["gpu0", "gpu1"], ["gpu2", "gpu3"], ["gpu4", "gpu5"], ["gpu6", "gpu7"],
        ]

    def test_islands_system_iii_nodes(self):
        c = system_iii(n_nodes=4)
        groups = c.topology.islands(c.gpu_names())
        assert len(groups) == 4
        assert all(len(g) == 4 for g in groups)

    def test_islands_uniform_single(self):
        t = Topology.fully_connected(["a", "b", "c", "d"])
        assert t.islands(["a", "b", "c", "d"]) == [["a", "b", "c", "d"]]

    def test_islands_subgroup(self):
        c = system_ii()
        groups = c.topology.islands(["gpu0", "gpu1", "gpu4"])
        assert groups == [["gpu0", "gpu1"], ["gpu4"]]

    def test_order_ring_preserves_uniform_order(self):
        t = Topology.fully_connected(["a", "b", "c", "d"])
        assert t.order_ring(["a", "b", "c", "d"]) == ["a", "b", "c", "d"]
        assert t.order_ring(["d", "b", "a", "c"]) == ["d", "b", "a", "c"]

    def test_order_ring_hugs_nvlink_pairs(self):
        c = system_ii()
        # an interleaved order is rearranged so NVLink partners are adjacent
        order = c.topology.order_ring(
            ["gpu0", "gpu2", "gpu1", "gpu3"]
        )
        i0, i1 = order.index("gpu0"), order.index("gpu1")
        assert abs(i0 - i1) in (1, 3)  # adjacent on the ring (mod wrap)

    def test_ring_stats_contention_penalty(self):
        """Two ring hops sharing one directed physical edge halve its
        bandwidth; the natural preset orders keep multiplicity 1."""
        t = Topology()
        for n in ("a", "b", "c"):
            t.add_device(n)
        t.add_link("a", "b", LinkType.PCIE)
        t.add_link("b", "c", LinkType.PCIE)
        # ring a-b-c-a: hop c->a routes through b, reusing edges c-b and b-a?
        # c->a shortest path is c-b-a, so directed edges (c,b) and (b,a) are
        # used once each, and (a,b)/(b,c) once each: no sharing, full bw
        bw_chain, _ = t.ring_stats(["a", "b", "c"])
        assert bw_chain == pytest.approx(16 * GB)
        # ring a-c-b-a: hop a->c routes a-b-c, hop c->b uses (c,b), hop
        # b->a uses (b,a): directed edge (b,c) used by a->c only... but
        # a->c and the return b->a share no directed edge either; use a
        # 4-node chain where sharing is forced
        t2 = Topology()
        for n in ("w", "x", "y", "z"):
            t2.add_device(n)
        t2.add_link("w", "x", LinkType.PCIE)
        t2.add_link("x", "y", LinkType.PCIE)
        t2.add_link("y", "z", LinkType.PCIE)
        # ring w-y-x-z-w: w->y (w,x)(x,y); y->x (y,x); x->z (x,y)(y,z);
        # z->w (z,y)(y,x)(x,w) -> directed (x,y) used 2x, (y,x) used 2x
        bw_scrambled, _ = t2.ring_stats(["w", "y", "x", "z"])
        bw_natural, _ = t2.ring_stats(["w", "x", "y", "z"])
        assert bw_scrambled < bw_natural

    def test_version_bumps_on_link_changes(self):
        c = system_ii()
        t = c.topology
        v0 = t.version
        t.scale_link("gpu0", "gpu1", 0.5)
        assert t.version == v0 + 1
        t.restore_links()
        assert t.version == v0 + 2

    def test_caches_invalidate_on_scale(self):
        c = system_ii()
        t = c.topology
        names = c.gpu_names()
        before = t.islands(names)
        bw_before, _ = t.ring_stats(t.order_ring(names))
        for a, b in (("gpu0", "gpu1"), ("gpu2", "gpu3"),
                     ("gpu4", "gpu5"), ("gpu6", "gpu7")):
            t.scale_link(a, b, 0.01)  # NVLink now slower than PCIe
        after = t.islands(names)
        assert after != before  # islands re-detected on the degraded fabric
        t.restore_links()
        assert t.islands(names) == before


class TestBandwidthProbe:
    """The Fig 10 analogue: System I sustains NVLink rates everywhere;
    System II collapses for distant pairs / wide groups."""

    def test_p2p_system_i_uniform(self):
        c = system_i()
        b01 = measure_p2p_bandwidth(c, 0, 1)
        b07 = measure_p2p_bandwidth(c, 0, 7)
        assert b01 == pytest.approx(b07, rel=0.01)
        assert b01 > 100 * GB

    def test_p2p_system_ii_cliff(self):
        c = system_ii()
        adjacent = measure_p2p_bandwidth(c, 0, 1)
        distant = measure_p2p_bandwidth(c, 0, 2)
        assert adjacent / distant > 5  # the paper reports 184 -> 15 GB/s

    def test_broadcast_system_i_group_invariant(self):
        c = system_i()
        b2 = measure_broadcast_bandwidth(c, [0, 1])
        b8 = measure_broadcast_bandwidth(c, list(range(8)))
        assert b8 > 0.5 * b2  # stays near NVLink rate

    def test_broadcast_system_ii_group_cliff(self):
        c = system_ii()
        pair = measure_broadcast_bandwidth(c, [0, 1])
        group = measure_broadcast_bandwidth(c, list(range(8)))
        assert pair / group > 5

    @pytest.mark.parametrize("system", [system_i, system_ii])
    def test_probes_read_the_simulated_run(self, system):
        """Fig 10's law: a probe is the payload over the simulated time of
        the same transfer run in spec mode, a send over each pair and a
        ring broadcast over each group."""
        cluster = system()
        payload = SpecArray((DEFAULT_PROBE_BYTES // 4,), "float32")

        def seconds(prog):
            return max(SpmdRuntime(cluster).run(prog, materialize=False))

        for dst in (1, 2, 7):
            def send(ctx, dst=dst):
                comm = Communicator.world(ctx)
                if ctx.rank == 0:
                    comm.send(payload, dst)
                elif ctx.rank == dst:
                    comm.recv(0)
                return ctx.clock.time

            assert measure_p2p_bandwidth(cluster, 0, dst) == DEFAULT_PROBE_BYTES / seconds(send)
        for size in (2, 4, 8):
            def broadcast(ctx, size=size):
                if ctx.rank < size:
                    Communicator.world(ctx).subgroup(range(size)).broadcast(payload)
                return ctx.clock.time

            assert (measure_broadcast_bandwidth(cluster, list(range(size)))
                    == DEFAULT_PROBE_BYTES / seconds(broadcast))

    def test_probe_size_effect_small_message(self):
        c = system_i()
        big = measure_p2p_bandwidth(c, 0, 1, nbytes=125 * MB)
        small = measure_p2p_bandwidth(c, 0, 1, nbytes=1024)
        assert big > small  # latency dominates small messages

    def test_allreduce_busbw_auto_recovers_system_ii(self):
        """The Fig 10 headline with the algorithm layer on: auto selection
        lifts System II group allreduce well above the flat-ring floor."""
        c = system_ii()
        ranks = list(range(8))
        ring = measure_allreduce_bandwidth(c, ranks, algorithm="ring")
        auto = measure_allreduce_bandwidth(c, ranks, algorithm="auto")
        assert auto > 2 * ring
