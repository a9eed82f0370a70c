"""Tests for the communicator: collective semantics, spec mode, counters,
cost model, point-to-point."""

import numpy as np
import pytest

from repro.cluster import system_i, system_ii, uniform_cluster
from repro.comm import CommCounters, Communicator, CostModel, SpecArray
from repro.runtime import SpmdRuntime

from conftest import run_spmd


class TestCollectives:
    def test_all_reduce_sum(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            out = comm.all_reduce(np.full(3, float(ctx.rank + 1)))
            return out.tolist()

        for res in run_spmd(4, prog):
            assert res == [10.0, 10.0, 10.0]

    def test_all_reduce_max(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            return comm.all_reduce(np.array([float(ctx.rank)]), op="max")[0]

        assert run_spmd(4, prog) == [3.0] * 4

    def test_all_reduce_shape_mismatch_raises(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            comm.all_reduce(np.zeros(2 + ctx.rank))

        from repro.runtime import RemoteRankError

        with pytest.raises(RemoteRankError):
            run_spmd(2, prog)

    def test_all_gather_order(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            return comm.all_gather(np.array([ctx.rank * 1.0])).tolist()

        for res in run_spmd(4, prog):
            assert res == [0.0, 1.0, 2.0, 3.0]

    def test_all_gather_axis(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            out = comm.all_gather(np.full((2, 1), float(ctx.rank)), axis=1)
            return out.shape, out[0].tolist()

        shape, row = run_spmd(2, prog)[0]
        assert shape == (2, 2) and row == [0.0, 1.0]

    def test_reduce_scatter(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            out = comm.reduce_scatter(np.arange(4.0))
            return out.tolist()

        res = run_spmd(2, prog)
        assert res[0] == [0.0, 2.0] and res[1] == [4.0, 6.0]

    def test_broadcast(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            x = np.array([7.0]) if ctx.rank == 2 else None
            return comm.broadcast(x, root=2)[0]

        assert run_spmd(4, prog) == [7.0] * 4

    def test_reduce_root_only(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            out = comm.reduce(np.array([1.0]), root=1)
            return None if out is None else out[0]

        assert run_spmd(3, prog) == [None, 3.0, None]

    def test_all_to_all(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            chunks = [np.array([float(ctx.rank * 10 + j)]) for j in range(2)]
            out = comm.all_to_all(chunks)
            return [float(c[0]) for c in out]

        res = run_spmd(2, prog)
        assert res[0] == [0.0, 10.0]
        assert res[1] == [1.0, 11.0]

    def test_ring_pass(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            out = comm.ring_pass(np.array([float(ctx.rank)]))
            return out[0]

        assert run_spmd(4, prog) == [3.0, 0.0, 1.0, 2.0]

    def test_ring_pass_negative_shift(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            return comm.ring_pass(np.array([float(ctx.rank)]), shift=-1)[0]

        assert run_spmd(4, prog) == [1.0, 2.0, 3.0, 0.0]

    def test_barrier_syncs_clocks(self):
        def prog(ctx):
            ctx.clock.advance(float(ctx.rank))
            Communicator.world(ctx).barrier()
            return ctx.clock.time

        res = run_spmd(4, prog)
        assert all(t >= 3.0 for t in res)

    def test_split_by_color(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            sub = comm.split(color=ctx.rank % 2)
            return sorted(sub.group.ranks), sub.rank

        res = run_spmd(4, prog)
        assert res[0][0] == [0, 2]
        assert res[1][0] == [1, 3]
        assert res[3][1] == 1

    def test_subgroup(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank < 2:
                sub = comm.subgroup([0, 1])
                return sub.all_reduce(np.array([1.0]))[0]
            return None

        res = run_spmd(2, prog)
        assert res == [2.0, 2.0]

    def test_determinism_bitwise(self):
        """Reduction order is rank order -> bitwise identical across runs."""

        def prog(ctx):
            comm = Communicator.world(ctx)
            rng = np.random.default_rng(ctx.rank)
            x = rng.standard_normal(64).astype(np.float32)
            return comm.all_reduce(x).tobytes()

        a = run_spmd(4, prog)
        b = run_spmd(4, prog)
        assert a == b


class TestP2P:
    def test_send_recv(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 0:
                comm.send(np.array([3.14]), dst=1, tag="x")
                return None
            return comm.recv(src=0, tag="x")[0]

        assert run_spmd(2, prog)[1] == pytest.approx(3.14)

    def test_tags_demultiplex(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 0:
                comm.send(np.array([1.0]), dst=1, tag="a")
                comm.send(np.array([2.0]), dst=1, tag="b")
                return None
            b = comm.recv(src=0, tag="b")[0]
            a = comm.recv(src=0, tag="a")[0]
            return (a, b)

        assert run_spmd(2, prog)[1] == (1.0, 2.0)

    def test_fifo_per_tag(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 0:
                for i in range(3):
                    comm.send(np.array([float(i)]), dst=1)
                return None
            return [comm.recv(src=0)[0] for _ in range(3)]

        assert run_spmd(2, prog)[1] == [0.0, 1.0, 2.0]

    def test_recv_time_after_send_time(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 0:
                ctx.clock.advance(1.0)
                comm.send(np.zeros(1024), dst=1)
                return ctx.clock.time
            x = comm.recv(src=0)
            return ctx.clock.time

        t_send, t_recv = run_spmd(2, prog)
        assert t_recv >= 1.0
        assert t_recv == pytest.approx(t_send, rel=1e-6)

    def test_sendrecv_exchange(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            other = 1 - ctx.rank
            out = comm.sendrecv(np.array([float(ctx.rank)]), dst=other, src=other)
            return out[0]

        assert run_spmd(2, prog) == [1.0, 0.0]


def _size_4(what, name, value):
    return f"{what}: {name} {value} is not a local rank of a group of size 4"


#: a call every rank of a 4-rank world makes with an out-of-range root or
#: peer, and the error it must raise
_BAD_RANKS = {
    "reduce-root-9": (lambda comm, x: comm.reduce(x, root=9),
                      _size_4("reduce", "root", 9)),
    "reduce-root--1": (lambda comm, x: comm.reduce(x, root=-1),
                       _size_4("reduce", "root", -1)),
    "broadcast-root-4": (lambda comm, x: comm.broadcast(x, root=4),
                         _size_4("broadcast", "root", 4)),
    "send-dst--1": (lambda comm, x: comm.send(x, dst=-1),
                    _size_4("send", "dst", -1)),
    "isend-dst-4": (lambda comm, x: comm.isend(x, dst=4),
                    _size_4("isend", "dst", 4)),
    "recv-src--1": (lambda comm, x: comm.recv(src=-1),
                    _size_4("recv", "src", -1)),
    "sendrecv-dst--1": (
        lambda comm, x: comm.sendrecv(x, dst=-1, src=(comm.rank - 1) % 4),
        _size_4("sendrecv", "dst", -1)),
    "sendrecv-src--1": (
        lambda comm, x: comm.sendrecv(x, dst=(comm.rank + 1) % 4, src=-1),
        _size_4("sendrecv", "src", -1)),
    "subgroup--1": (lambda comm, x: comm.subgroup([-1, 0]),
                    _size_4("subgroup", "member", -1)),
}


class TestOutOfRangeRanks:
    """A root or peer outside ``[0, size)`` is refused on the calling rank
    with the same ``ValueError`` in both modes, before any clock, counter,
    round or mailbox moves; a negative one used to wrap to a member from the
    end, and ``reduce`` dropped its result."""

    @pytest.mark.parametrize("spec", [False, True], ids=["real", "spec"])
    @pytest.mark.parametrize("case", list(_BAD_RANKS))
    def test_refused_before_anything_moves(self, case, spec):
        call, text = _BAD_RANKS[case]
        rt = SpmdRuntime(uniform_cluster(4))

        def prog(ctx):
            comm = Communicator.world(ctx)
            x = (SpecArray((4, 2), "float32") if spec
                 else np.full((4, 2), float(ctx.rank), np.float32))
            with pytest.raises(ValueError) as exc:
                call(comm, x)
            return str(exc.value)

        # every rank returns (none hangs), and a clean run's end has found
        # no outstanding buffer-pool loan
        assert rt.run(prog, materialize=not spec) == [text] * 4
        assert rt.buffer_pool is not None and not rt.buffer_pool._outstanding
        assert [c.time for c in rt.clocks] == [0.0] * 4
        assert [s.time for s in rt.comm_streams] == [0.0] * 4
        assert not rt.mailboxes._boxes
        world = rt.world_group
        assert list(rt._groups.values()) == [world]  # no subgroup was built
        assert world._rounds == {} and set(world._seq.values()) == {0}
        assert world.counters.calls_total == world.counters.bytes_total == 0


class TestSpecMode:
    def test_all_reduce_spec(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            out = comm.all_reduce(SpecArray((4, 4), "float16"))
            return isinstance(out, SpecArray), out.shape, ctx.clock.time

        for is_spec, shape, t in run_spmd(4, prog, materialize=False):
            assert is_spec and shape == (4, 4) and t > 0

    def test_all_gather_spec_shape(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            return comm.all_gather(SpecArray((2, 3)), axis=0).shape

        assert run_spmd(4, prog, materialize=False) == [(8, 3)] * 4

    def test_spec_and_real_cost_identical(self):
        def prog_real(ctx):
            comm = Communicator.world(ctx)
            comm.all_reduce(np.zeros((64, 64), dtype=np.float32))
            return ctx.clock.time

        def prog_spec(ctx):
            comm = Communicator.world(ctx)
            comm.all_reduce(SpecArray((64, 64), "float32"))
            return ctx.clock.time

        assert run_spmd(4, prog_real) == run_spmd(4, prog_spec, materialize=False)

    @pytest.mark.parametrize("nonblocking", [False, True])
    def test_agreeing_members_share_rank_0_payload(self, nonblocking):
        """A spec all-reduce or broadcast result is an immutable value: every
        member receives the one payload, built nowhere."""
        xs = [SpecArray((4, 4), "float16") for _ in range(4)]

        def prog(ctx):
            comm = Communicator.world(ctx)
            if nonblocking:
                reduced = comm.iallreduce(xs[ctx.rank]).wait()
            else:
                reduced = comm.all_reduce(xs[ctx.rank])
            return reduced, comm.broadcast(xs[ctx.rank], root=2)

        for reduced, sent in run_spmd(4, prog, materialize=False):
            assert reduced is xs[0] and sent is xs[2]


class TestCountersAndCost:
    def test_allreduce_wire_volume(self):
        """Ring allreduce totals 2(p-1) * payload (Table 1 convention)."""
        rt = SpmdRuntime(uniform_cluster(4))

        def prog(ctx):
            comm = Communicator.world(ctx)
            comm.all_reduce(np.zeros(100, dtype=np.float32))

        rt.run(prog)
        c = rt.world_group.counters
        assert c.elements_total == 2 * 3 * 100
        assert c.bytes_total == 2 * 3 * 400

    def test_allgather_wire_volume(self):
        rt = SpmdRuntime(uniform_cluster(4))

        def prog(ctx):
            comm = Communicator.world(ctx)
            comm.all_gather(np.zeros(10, dtype=np.float64))

        rt.run(prog)
        assert rt.world_group.counters.elements_total == 4 * 3 * 10

    def test_broadcast_wire_volume(self):
        rt = SpmdRuntime(uniform_cluster(4))

        def prog(ctx):
            comm = Communicator.world(ctx)
            comm.broadcast(np.zeros(10) if ctx.rank == 0 else None)

        rt.run(prog)
        assert rt.world_group.counters.elements_total == 3 * 10

    def test_counters_reset_and_merge(self):
        c1 = CommCounters()
        c1.record("all_reduce", 100, 25)
        c1.record("p2p", 4, 1)
        assert c1.bytes_total == 104
        assert c1.by_op_calls == {"all_reduce": 1, "p2p": 1}
        c1.reset()
        assert c1.bytes_total == 0

    def test_cost_singleton_group_free(self):
        cm = CostModel(uniform_cluster(2))
        assert cm.allreduce([0], 1000).seconds == 0.0

    def test_cost_topology_sensitivity(self):
        """The same allreduce is slower on System II's full ring than on
        System I (the Fig 11 mechanism)."""
        nbytes = 64 * 1024 * 1024
        t1 = CostModel(system_i()).allreduce(list(range(8)), nbytes).seconds
        t2 = CostModel(system_ii()).allreduce(list(range(8)), nbytes).seconds
        assert t2 > 3 * t1

    def test_cost_pair_groups_fast_on_system_ii(self):
        nbytes = 64 * 1024 * 1024
        cm = CostModel(system_ii())
        pair = cm.allreduce([0, 1], nbytes).seconds
        distant_pair = cm.allreduce([0, 2], nbytes).seconds
        assert distant_pair > 3 * pair

    def test_host_transfer_cost(self):
        cm = CostModel(uniform_cluster(2))
        c = cm.host_transfer(0, 16 * 1024**3)
        assert c.seconds == pytest.approx(1.0, rel=0.01)  # 16 GB over 16 GB/s
