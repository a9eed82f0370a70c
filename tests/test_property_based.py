"""Property-based tests (hypothesis) on core data structures and
invariants: payload shape algebra, sharding roundtrips, collective
semantics vs numpy references, partitioning, memory-pool accounting."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.device import Device, DeviceKind, Storage
from repro.comm.payload import SpecArray
from repro.parallel.pipeline.partition import partition_balanced, partition_uniform
from repro.tensor.sharding import shard_payload

# SPMD tests spawn threads; keep examples modest
fast = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

shapes = st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple)


class TestSpecArrayProperties:
    @given(shape=shapes)
    @fast
    def test_size_and_nbytes_consistent(self, shape):
        s = SpecArray(shape, "float32")
        assert s.size == int(np.prod(shape))
        assert s.nbytes == s.size * 4

    @given(shape=shapes)
    @fast
    def test_reshape_preserves_size(self, shape):
        s = SpecArray(shape)
        flat = s.reshape(-1)
        assert flat.shape == (s.size,)
        back = flat.reshape(shape)
        assert back.shape == shape

    @given(shape=shapes, data=st.data())
    @fast
    def test_reshape_matches_numpy(self, shape, data):
        s = SpecArray(shape)
        arr = np.zeros(shape)
        target = data.draw(st.sampled_from([(-1,), (s.size,), shape]))
        assert s.reshape(*target).shape == arr.reshape(*target).shape

    @given(shape=shapes)
    @fast
    def test_invalid_reshape_rejected(self, shape):
        s = SpecArray(shape)
        with pytest.raises(ValueError):
            s.reshape(s.size + 1)


class TestShardingProperties:
    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        p0=st.sampled_from([1, 2, 4]),
        p1=st.sampled_from([1, 2, 4]),
    )
    @fast
    def test_chunks_partition_exactly(self, rows, cols, p0, p1):
        shape = (rows * p0, cols * p1)
        x = np.arange(np.prod(shape)).reshape(shape)
        seen = np.zeros(shape, dtype=bool)
        total = 0
        for i in range(p0):
            for j in range(p1):
                c = shard_payload(shard_payload(x, 0, p0, i), 1, p1, j)
                assert c.shape == (rows, cols)
                total += c.size
                # every element recovered exactly once
                r0 = i * (shape[0] // p0)
                c0 = j * (shape[1] // p1)
                seen[r0 : r0 + c.shape[0], c0 : c0 + c.shape[1]] |= True
        assert total == x.size
        assert seen.all()


class TestPartitionProperties:
    @given(
        costs=st.lists(st.floats(0.1, 100.0), min_size=2, max_size=24),
        data=st.data(),
    )
    @fast
    def test_balanced_is_valid_partition(self, costs, data):
        n_stages = data.draw(st.integers(1, len(costs)))
        ranges = partition_balanced(costs, n_stages)
        assert len(ranges) == n_stages
        assert ranges[0][0] == 0 and ranges[-1][1] == len(costs)
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c
            assert d > c
        assert all(e > s for s, e in ranges)

    @given(
        costs=st.lists(st.floats(0.5, 10.0), min_size=4, max_size=16),
        data=st.data(),
    )
    @fast
    def test_balanced_never_worse_than_uniform(self, costs, data):
        n_stages = data.draw(st.integers(2, min(4, len(costs))))

        def max_load(ranges):
            return max(sum(costs[s:e]) for s, e in ranges)

        bal = max_load(partition_balanced(costs, n_stages))
        uni = max_load(partition_uniform(len(costs), n_stages))
        assert bal <= uni + 1e-9


class TestMemoryPoolProperties:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["alloc", "free", "release", "drop", "reset"]),
                      st.integers(1, 1000)),
            max_size=40,
        )
    )
    @fast
    def test_accounting_invariants(self, ops):
        """Storage handles against a model ledger: an allocation charges,
        a free (explicit release of the newest handle, then its drop), a
        release of the oldest handle kept alive, a drop of the last
        reference and a reset with handles alive — a handle born before
        the reset returns nothing."""
        dev = Device("gpu", DeviceKind.GPU, memory_capacity=10_000)
        pool = dev.memory
        live, stale = [], []  # handles in the ledger / out of it but still held
        for kind, size in ops:
            if kind == "alloc":
                try:
                    live.append(Storage(dev, size))
                except MemoryError:
                    assert sum(s.nbytes for s in live) + size > 10_000
            elif kind == "free" and live:
                live.pop().release()
            elif kind == "release" and live:
                handle = live.pop(0)
                handle.release()
                stale.append(handle)
            elif kind == "drop" and live:
                del live[size % len(live)]
            elif kind == "reset":
                pool.reset()
                stale.extend(live)
                live.clear()
                assert pool.peak == 0
            if stale and size % 2:
                del stale[0]  # a stale handle's drop returns nothing
            assert pool.allocated == sum(s.nbytes for s in live)
            assert 0 <= pool.allocated <= pool.capacity
            assert pool.peak >= pool.allocated
            assert sum(pool.breakdown().values()) == pool.allocated


class TestCollectiveProperties:
    @given(
        seed=st.integers(0, 2**16),
        n=st.sampled_from([1, 3, 8]),
        world=st.sampled_from([2, 4]),
    )
    @settings(max_examples=10, deadline=None)
    def test_allreduce_equals_numpy_sum(self, seed, n, world):
        from conftest import run_spmd

        rng = np.random.default_rng(seed)
        data = rng.standard_normal((world, n)).astype(np.float32)

        def prog(ctx):
            from repro.comm import Communicator

            comm = Communicator.world(ctx)
            return comm.all_reduce(data[ctx.rank].copy())

        expect = data.sum(axis=0)
        for out in run_spmd(world, prog):
            np.testing.assert_allclose(out, expect, atol=1e-5)

    @given(seed=st.integers(0, 2**16), world=st.sampled_from([2, 4]))
    @settings(max_examples=10, deadline=None)
    def test_reduce_scatter_then_allgather_is_allreduce(self, seed, world):
        from conftest import run_spmd

        rng = np.random.default_rng(seed)
        data = rng.standard_normal((world, world * 3)).astype(np.float32)

        def prog(ctx):
            from repro.comm import Communicator

            comm = Communicator.world(ctx)
            shard = comm.reduce_scatter(data[ctx.rank].copy())
            return comm.all_gather(shard)

        expect = data.sum(axis=0)
        for out in run_spmd(world, prog):
            np.testing.assert_allclose(out, expect, atol=1e-5)


class TestAutogradProperties:
    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(1, 5),
        k=st.integers(1, 5),
        n=st.integers(1, 5),
    )
    @fast
    def test_matmul_grad_identity(self, seed, m, k, n):
        """d(sum(AB))/dA == ones @ B^T for any shapes."""
        from repro.autograd import ops
        from repro.tensor import Tensor

        rng = np.random.default_rng(seed)
        A = Tensor(rng.standard_normal((m, k)), requires_grad=True)
        B = Tensor(rng.standard_normal((k, n)), requires_grad=True)
        ops.matmul(A, B).sum().backward()
        np.testing.assert_allclose(
            A.grad.numpy(), np.ones((m, n)) @ B.numpy().T, atol=1e-8
        )
        np.testing.assert_allclose(
            B.grad.numpy(), A.numpy().T @ np.ones((m, n)), atol=1e-8
        )

    @given(seed=st.integers(0, 2**16), n=st.integers(2, 16))
    @fast
    def test_softmax_rows_sum_to_one(self, seed, n):
        from repro.autograd import ops
        from repro.tensor import Tensor

        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, n)) * 5)
        out = ops.softmax(x, axis=-1).numpy()
        np.testing.assert_allclose(out.sum(-1), 1.0, atol=1e-6)
        assert (out >= 0).all()

    @given(seed=st.integers(0, 2**16))
    @fast
    def test_layernorm_grad_orthogonal_to_ones(self, seed):
        """LayerNorm output is mean-invariant, so dL/dx must be orthogonal
        to the all-ones direction (row sums ~ 0) when gamma=1."""
        from repro.autograd import ops
        from repro.tensor import Tensor

        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, 8)), requires_grad=True)
        g = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        out = ops.layer_norm(x, g, b)
        out.backward(Tensor(rng.standard_normal((2, 8))))
        np.testing.assert_allclose(x.grad.numpy().sum(-1), 0.0, atol=1e-5)
