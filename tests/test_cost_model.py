"""Cost-model details: bandwidth ramp, algorithm formulas, latency terms."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import system_i, system_ii, system_iii, system_iv, uniform_cluster
from repro.comm.algorithms import ALGORITHMS, SELECTABLE_OPS
from repro.comm.cost import CostModel
from repro.project.fabric import Fabric, ProjectedCostModel
from repro.utils.units import GB, KB, MB


class TestBandwidthRamp:
    def test_eff_monotone_in_size(self):
        cm = CostModel(uniform_cluster(2))
        bw = 200 * GB
        e1 = cm._eff(bw, 1 * MB)
        e2 = cm._eff(bw, 32 * MB)
        e3 = cm._eff(bw, 1 * GB)
        assert e1 < e2 < e3 < bw

    def test_half_point_at_knee(self):
        cluster = uniform_cluster(2)
        cm = CostModel(cluster)
        bw = 200 * GB
        knee = int(bw * cluster.bw_ramp_time)
        assert cm._eff(bw, knee) == pytest.approx(bw / 2, rel=1e-6)

    def test_knee_scales_with_link_speed(self):
        """A 10 GB/s link must reach half-peak at a 20x smaller message
        than a 200 GB/s link (latency-bandwidth product)."""
        cm = CostModel(uniform_cluster(2))
        fast_half = 200 * GB * cm.bw_ramp
        slow_half = 10 * GB * cm.bw_ramp
        assert fast_half / slow_half == pytest.approx(20.0)
        # consequence: a 2 MB message is near-peak on the slow link but
        # heavily degraded on the fast one
        assert cm._eff(10 * GB, 2 * MB) / (10 * GB) > 0.5
        assert cm._eff(200 * GB, 2 * MB) / (200 * GB) < 0.1

    def test_ramp_disabled(self):
        cluster = uniform_cluster(2)
        cluster.bw_ramp_time = 0.0
        cm = CostModel(cluster)
        assert cm._eff(200 * GB, 1) == 200 * GB


class TestAlgorithmCosts:
    def test_allreduce_scales_with_group(self):
        cm = CostModel(system_i())
        n = 256 * MB
        t2 = cm.allreduce([0, 1], n).seconds
        t8 = cm.allreduce(list(range(8)), n).seconds
        # ring allreduce beta term: 2(p-1)/p -> 1.0 at p=2, 1.75 at p=8
        assert 1.2 < t8 / t2 < 2.2

    def test_allgather_vs_reduce_scatter_duality(self):
        cm = CostModel(system_i())
        ranks = list(range(4))
        # RS of n and AG of n/p move the same wire bytes
        n = 64 * MB
        rs = cm.reduce_scatter(ranks, n)
        ag = cm.allgather(ranks, n // 4)
        assert rs.wire_bytes == pytest.approx(ag.wire_bytes, rel=1e-6)

    def test_zero_bytes_free(self):
        cm = CostModel(system_i())
        assert cm.allreduce([0, 1], 0).seconds == 0.0
        assert cm.p2p(0, 1, 0).seconds == 0.0

    def test_barrier_logarithmic(self):
        cm = CostModel(system_i())
        assert cm.barrier([0, 1]).seconds < cm.barrier(list(range(8))).seconds

    def test_p2p_self_free(self):
        cm = CostModel(system_i())
        assert cm.p2p(2, 2, 1024).seconds == 0.0

    def test_multinode_slower_than_intranode(self):
        cm = CostModel(system_iv())
        n = 64 * MB
        local_pair = cm.allreduce([0, 1], n).seconds  # adjacent Aries nodes
        cm_i = CostModel(system_i())
        nvlink_pair = cm_i.allreduce([0, 1], n).seconds
        assert local_pair > 5 * nvlink_pair

    def test_all_to_all_charges_link_latency(self):
        """Regression: all_to_all dropped the latency term every other
        collective charges, so its cost at tiny payloads was below even a
        single p2p hop's floor."""
        cm = CostModel(system_i())
        ranks = list(range(4))
        cluster = cm.cluster
        names = cluster.gpu_names(ranks)
        lat = max(
            cluster.topology.path_stats(a, b)[1]
            for i, a in enumerate(names) for b in names[i + 1:]
        )
        a2a = cm.all_to_all(ranks, 1024).seconds
        floor = (len(ranks) - 1) * cm.alpha + lat
        assert a2a > floor
        assert lat > 0


class TestCollectiveAlgorithms:
    """Per-algorithm cost formulas and the cost-driven selector."""

    ALGOS = ("ring", "tree", "hierarchical")

    def test_hierarchical_beats_ring_on_system_ii(self):
        """The ISSUE acceptance criterion: >= 2x at >= 64 MiB over 8 GPUs."""
        cm = CostModel(system_ii())
        ranks = list(range(8))
        for n in (64 * MB, 125 * MB, 256 * MB):
            ring = cm.allreduce(ranks, n, algorithm="ring").seconds
            hier = cm.allreduce(ranks, n, algorithm="hierarchical").seconds
            assert ring / hier >= 2.0

    def test_hierarchical_matches_ring_wire_bytes(self):
        """Allreduce moves 2(p-1)n total regardless of schedule; the
        hierarchical variant just moves most of it over fast links."""
        cm = CostModel(system_ii())
        ranks, n = list(range(8)), 8 * MB
        ring = cm.allreduce(ranks, n, algorithm="ring")
        hier = cm.allreduce(ranks, n, algorithm="hierarchical")
        assert ring.wire_bytes == hier.wire_bytes == 2 * 7 * n

    def test_hierarchical_degenerates_to_ring_on_uniform(self):
        """One island -> the hierarchical schedule *is* the flat ring."""
        cm = CostModel(system_i())
        ring = cm.allreduce(range(8), 4 * MB, algorithm="ring")
        hier = cm.allreduce(range(8), 4 * MB, algorithm="hierarchical")
        assert hier.seconds == pytest.approx(ring.seconds)
        assert hier.algorithm == "hierarchical"

    def test_tree_wins_small_hierarchical_wins_large(self):
        """The System II crossover the selector exists to capture."""
        cm = CostModel(system_ii())
        ranks = list(range(8))
        small = cm.allreduce(ranks, 64 * KB, algorithm="auto")
        large = cm.allreduce(ranks, 64 * MB, algorithm="auto")
        assert small.algorithm == "tree"
        assert large.algorithm == "hierarchical"

    def test_cost_labeled_with_algorithm(self):
        cm = CostModel(system_ii())
        for algo in self.ALGOS:
            for op in ("allreduce", "allgather", "reduce_scatter",
                       "broadcast", "reduce"):
                cost = getattr(cm, op)(range(4), MB, algorithm=algo)
                assert cost.algorithm == algo

    def test_auto_never_worse_than_ring(self):
        for mk in (system_i, system_ii, system_iii):
            cm = CostModel(mk())
            for op in ("allreduce", "allgather", "reduce_scatter",
                       "broadcast", "reduce"):
                price = getattr(cm, op)
                for p in (2, 3, 8):
                    for n in (512, 64 * KB, MB, 64 * MB):
                        auto = price(range(p), n, algorithm="auto")
                        ring = price(range(p), n, algorithm="ring")
                        assert auto.seconds <= ring.seconds * (1 + 1e-12)

    def test_default_algorithm_is_ring(self):
        cm = CostModel(system_ii())
        assert cm.allreduce(range(8), MB).algorithm == "ring"

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown collective algorithm"):
            CostModel(system_i(), algorithm="bcube")
        cm = CostModel(system_i())
        with pytest.raises(ValueError, match="unknown collective algorithm"):
            cm.allreduce([0, 1], MB, algorithm="nccl")

    def test_tree_latency_optimal_at_scale(self):
        """O(log p) steps vs O(p): tree beats ring for tiny payloads on a
        big flat group."""
        cm = CostModel(system_iii())
        ranks = list(range(64))
        tree = cm.allreduce(ranks, 1024, algorithm="tree").seconds
        ring = cm.allreduce(ranks, 1024, algorithm="ring").seconds
        assert tree < ring

    def test_hierarchical_system_iii_multinode(self):
        """Node-local islands bridged by InfiniBand: the two-level schedule
        dominates the flat 64-rank ring for big payloads."""
        cm = CostModel(system_iii())
        ranks = list(range(64))
        hier = cm.allreduce(ranks, 64 * MB, algorithm="hierarchical").seconds
        ring = cm.allreduce(ranks, 64 * MB, algorithm="ring").seconds
        assert ring / hier > 2

    def test_selector_caches_by_size_bucket(self):
        cm = CostModel(system_ii(), algorithm="auto")
        cm.allreduce(range(8), MB)
        misses = cm.selector.misses
        cm.allreduce(range(8), MB + 8)  # same power-of-two bucket
        assert cm.selector.misses == misses
        assert cm.selector.hits >= 1
        cm.allreduce(range(8), 64 * MB)  # different bucket
        assert cm.selector.misses == misses + 1


class TestAdaptiveEvictionUnderPressure:
    """The pre_fetch LRU eviction path: a GPU that fits the shards but not
    a gathered chunk must evict (not OOM) when fetching."""

    def test_eviction_keeps_training_alive(self):
        from repro.cluster import uniform_cluster
        from repro.comm import Communicator
        from repro.nn import CrossEntropyLoss, Linear, Module
        from repro.autograd import ops
        from repro.runtime import SpmdRuntime
        from repro.zero import AdaptivePolicy, ZeroOffloadEngine
        from repro.comm.cost import CostModel as CM

        H, C = 64, 4

        class Block(Module):
            def __init__(self, rng, out=H):
                super().__init__()
                self.lin = Linear(H, out, rng=rng)

            def forward(self, x):
                y = self.lin(x)
                return ops.gelu(y) if self.lin.out_features == H else y

        # pool sized so all shards + states fit but a fetched full chunk
        # pressures the pool -> pre_fetch must evict the LRU chunk
        cluster = uniform_cluster(1, memory_gb=2.5e-4)  # ~260 KB

        rt = SpmdRuntime(cluster)

        def prog(ctx):
            comm = Communicator.world(ctx)
            rngs = [np.random.default_rng((3, i)) for i in range(4)]
            blocks = [Block(rngs[0]), Block(rngs[1]), Block(rngs[2]), Block(rngs[3], out=C)]
            pol = AdaptivePolicy(ctx.device, ctx.cpu, CM(ctx.cluster), ctx.rank)
            eng = ZeroOffloadEngine(
                ctx, blocks, comm, pol, criterion=CrossEntropyLoss(),
                chunk_mb=0.02, lr=1e-2, param_dtype="float32",
            )
            X = np.random.default_rng(0).standard_normal((4, H)).astype(np.float32)
            Y = np.random.default_rng(1).integers(0, C, 4)
            losses = [eng.train_step(X, Y) for _ in range(2)]
            return losses, eng.gpu_param_fraction()

        losses, frac = rt.run(prog)[0]
        assert all(np.isfinite(l) for l in losses)
        assert frac < 1.0  # something was evicted to the host


# -- memoised pricing == cold pricing (ISSUE 18) ------------------------------

_SYSTEMS = {
    "system_i": system_i,
    "system_ii": system_ii,
    "system_iii": lambda: system_iii(n_nodes=2),
}
#: mostly a small pool, so the same (probe, group) is asked again after an
#: edit; now and then any subset in any order
_GROUP = st.one_of(
    st.sampled_from([list(range(8)), [0, 1, 2, 3], [4, 5, 6, 7], [0, 4],
                     [3, 1, 2, 0], [0, 2, 4, 6], [1]]),
    st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True),
)
_NBYTES = st.one_of(
    st.integers(1, 64 * MB), st.just(0),
    st.sampled_from([4 * KB, 4 * KB + 1, 1 * MB, (1 * MB) - 1, 16 * MB]))
_QUERY = st.one_of(
    # ``auto`` weighted up: its bucket table is the one priced state with history
    st.tuples(st.sampled_from(sorted(SELECTABLE_OPS)), _GROUP, _NBYTES,
              st.sampled_from(ALGORITHMS + ("auto",) * 3)),
    st.tuples(st.sampled_from(["scatter", "gather"]), _GROUP, _NBYTES,
              st.integers(0, 7)),
    st.tuples(st.sampled_from(["all_to_all", "barrier"]), _GROUP, _NBYTES,
              st.none()),
    st.tuples(st.just("p2p"), st.tuples(st.integers(0, 7), st.integers(0, 7)),
              _NBYTES, st.none()),
    st.tuples(st.just("host_transfer"), st.tuples(st.integers(0, 7)),
              _NBYTES, st.none()),
)
#: link degradation (0.05 collapses a System II NVLink pair below the
#: island threshold), speed-up and restoration
_EDIT = st.one_of(
    st.tuples(st.just("scale_link"), st.integers(0, 63),
              st.sampled_from([0.05, 0.5, 2.0, 1.0])),
    st.tuples(st.just("restore_links")),
)


def _ask(cm, op, ranks, nbytes, arg):
    if op in SELECTABLE_OPS:
        method = getattr(cm, {"all_reduce": "allreduce",
                              "all_gather": "allgather"}.get(op, op))
        return method(ranks, nbytes, algorithm=arg)
    if op in ("scatter", "gather"):
        return getattr(cm, op)(ranks[arg % len(ranks)], ranks, nbytes)
    if op == "barrier":
        return cm.barrier(ranks)
    if op == "p2p":
        return cm.p2p(ranks[0], ranks[1], nbytes)
    if op == "host_transfer":
        return cm.host_transfer(ranks[0], nbytes)
    return cm.all_to_all(ranks, nbytes)


class _ColdSelector:
    """The selector's rule restated over *cold* prices: a bucket's first
    query picks the cheapest family, later ones re-price that family
    against the flat ring, and any change to the link graph empties it."""

    def __init__(self):
        self.choice, self.hits, self.misses = {}, 0, 0

    def price(self, cold, op, ranks, nbytes):
        if len(ranks) < 2 or nbytes == 0:
            return cold.allreduce(ranks, 0)
        key = (tuple(ranks), op, nbytes.bit_length())
        if key not in self.choice:
            self.misses += 1
            costs = [cold._op_cost(op, ranks, nbytes, a) for a in ALGORITHMS]
            best = min(costs, key=lambda c: c.seconds)  # first wins a tie
            self.choice[key] = best.algorithm
            return best
        self.hits += 1
        cost = cold._op_cost(op, ranks, nbytes, self.choice[key])
        ring = cold._op_cost(op, ranks, nbytes, "ring")
        return ring if ring.seconds < cost.seconds else cost


class TestMemoisedPricing:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(system=st.sampled_from(sorted(_SYSTEMS)),
           queries=st.lists(_QUERY, min_size=1, max_size=5),
           edits=st.lists(_EDIT, min_size=1, max_size=5))
    # a bucket filled over System II's NVLink pairs (hierarchical) must not
    # survive the degradation of one pair's link
    @example(system="system_ii",
             queries=[("all_reduce", list(range(8)), 64 * MB, "auto")],
             edits=[("scale_link", 1, 0.05)])
    def test_long_lived_model_prices_like_a_fresh_one(self, system, queries,
                                                      edits):
        """One long-lived ``CostModel`` against one built for every query:
        the same few queries are asked again after each link degradation /
        restoration, and the price memo may only ever return what a fresh
        pricing of the edited model would."""
        cluster = _SYSTEMS[system]()
        topo = cluster.topology
        links = sorted(topo.links())  # GPU pairs and host links
        warm, reference = CostModel(cluster), _ColdSelector()
        for edit in [None] + edits:
            if edit is not None:
                if edit[0] == "scale_link":
                    topo.scale_link(*links[edit[1] % len(links)], edit[2])
                else:
                    topo.restore_links()
                reference.choice.clear()
            for op, ranks, nbytes, arg in queries:
                cold = CostModel(cluster)
                got = _ask(warm, op, list(ranks), nbytes, arg)
                if arg == "auto":
                    want = reference.price(cold, op, list(ranks), nbytes)
                else:
                    want = _ask(cold, op, list(ranks), nbytes, arg)
                assert (got.seconds, got.wire_bytes, got.algorithm) == (
                    want.seconds, want.wire_bytes, want.algorithm), (op, edit)
        selector = warm.selector
        assert (selector.hits, selector.misses) == (
            reference.hits, reference.misses)

    @pytest.mark.parametrize("query", [
        lambda cm: cm.allreduce(range(8), -48),
        lambda cm: cm.allreduce(range(8), -48, algorithm="auto"),
        lambda cm: cm.allgather(range(4), -1, algorithm="tree"),
        lambda cm: cm.scatter(0, range(8), -48),
        lambda cm: cm.all_to_all(range(8), -48),
        lambda cm: cm.p2p(0, 1, -48),
        lambda cm: cm.host_transfer(0, -48),
        lambda cm: cm.ring_pass(range(4), -48),
    ])
    def test_negative_byte_count_rejected(self, query):
        for cm in (CostModel(system_ii()), ProjectedCostModel(Fabric.uniform())):
            with pytest.raises(ValueError, match="negative byte count"):
                query(cm)
            assert cm.selector.misses == 0

    def test_projected_model_overrides_link_probes_only(self):
        """The fabric model answers where link numbers come from and
        nothing else: a formula copied into it would drift from the
        cluster model's (negative byte counts once priced there)."""
        own = {name for name in vars(ProjectedCostModel)
               if not name.startswith("__")} - {"_node_of"}
        assert own, "nothing overridden"
        for name in own:
            assert name.startswith("_") and hasattr(CostModel, name), name

    def test_price_refuses_an_op_it_cannot_price(self):
        """``price`` takes the selectable ops only: a single-schedule op
        (its own method prices it) or an unknown name is a ``ValueError``
        naming the op, under a fixed family and under ``auto`` alike, and
        is never priced as some other schedule."""
        cm = CostModel(system_ii())
        for op in ("scatter", "all_to_all", "allreduce"):
            for algorithm in ALGORITHMS + ("auto",):
                with pytest.raises(ValueError, match=rf"'{op}'.*SELECTABLE_OPS"):
                    cm.price(op, list(range(8)), 4 * MB, algorithm)
        assert (len(cm.selector), cm.selector.misses) == (0, 0)


#: Systems I, II, III (2 nodes) and IV, each with a few groups: whole
#: nodes, NVLink pairs, strided and cross-node members
_LAW_GROUPS = {
    system_i: [[0, 1], [0, 1, 2, 3], list(range(8))],
    system_ii: [[0, 1], [0, 1, 2, 3], list(range(8)), [0, 2, 4, 6]],
    (lambda: system_iii(n_nodes=2)): [[0, 1, 2, 3], list(range(8)), [0, 4], [1, 3, 5, 7]],
    system_iv: [[0, 1], [0, 1, 2, 3], [0, 8, 16, 24]],
}


@pytest.mark.parametrize("system", list(_LAW_GROUPS), ids=["I", "II", "III", "IV"])
def test_a_faster_link_never_raises_a_price(system):
    """More bandwidth never costs time, at the pricing layer: raising any
    one link to 2x its bandwidth never raises ``CostModel.price`` of any
    selectable op, under any family or ``auto``.  Each size sits in its own
    power-of-two bucket, so ``auto``'s price is the cheapest family's, not
    history's."""
    cluster = system()
    topo, groups = cluster.topology, _LAW_GROUPS[system]
    queries = [(op, g, n, algo) for op in sorted(SELECTABLE_OPS) for g in groups
               for n in (4 * KB, 1 * MB, 64 * MB) for algo in ALGORITHMS + ("auto",)]

    def prices():
        cm = CostModel(cluster)
        return [cm.price(*q).seconds for q in queries]

    base, quicker = prices(), 0
    for a, b in topo.links():
        topo.scale_link(a, b, 2.0)
        faster = prices()
        topo.restore_links()
        slower = [(q, t0, t1) for q, t0, t1 in zip(queries, base, faster) if t1 > t0]
        assert not slower, ((a, b), slower[:3])
        quicker += sum(t1 < t0 for t0, t1 in zip(base, faster))
    assert quicker > 0  # the law is not vacuous: some link does buy time
