"""Data parallelism: gradient averaging equals full-batch training."""

import numpy as np
import pytest

from repro.comm import SpecArray
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.nn import CrossEntropyLoss, Linear
from repro.parallel.data import DistributedDataParallel, shard_batch, sync_gradients
from repro.tensor import Tensor

from conftest import run_spmd


def _pc(ctx):
    return ParallelContext(ctx, Config.from_dict({}))


class TestSyncGradients:
    def test_ddp_grads_equal_full_batch(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 6)).astype(np.float32)
        Y = rng.integers(0, 3, 8)
        crit = CrossEntropyLoss()

        # serial full batch
        model_s = Linear(6, 3, rng=np.random.default_rng(1))
        crit(model_s(Tensor(X.copy())), Y).backward()
        ref = model_s.weight.grad.numpy().copy()

        def prog(ctx):
            pc = _pc(ctx)
            model = Linear(6, 3, rng=np.random.default_rng(1))
            ddp = DistributedDataParallel(model, pc)
            xl, yl = shard_batch(X, pc), shard_batch(Y, pc)
            crit(ddp(Tensor(xl.copy())), yl).backward()
            ddp.sync()
            return model.weight.grad.numpy()

        for g in run_spmd(4, prog):
            np.testing.assert_allclose(g, ref, atol=1e-5)

    def test_bucketing_many_small_params(self):
        """Many tiny params must fuse into few allreduce calls."""
        from repro.cluster import uniform_cluster
        from repro.runtime import SpmdRuntime

        rt = SpmdRuntime(uniform_cluster(2))

        def prog(ctx):
            pc = _pc(ctx)
            params = []
            from repro.nn.module import Parameter

            for i in range(20):
                p = Parameter(np.ones(10, dtype=np.float32))
                p.grad = Tensor(np.full(10, float(ctx.rank), dtype=np.float32))
                params.append(p)
            sync_gradients(params, pc.comm(ParallelMode.DATA), bucket_mb=1.0)
            return [p.grad.numpy()[0] for p in params]

        res = rt.run(prog)
        assert all(v == pytest.approx(0.5) for v in res[0])
        # all 20 params fit one 1 MiB bucket -> exactly 1 allreduce
        world = rt.group((0, 1))
        assert world.counters.by_op_calls["all_reduce"] == 1

    def test_small_buckets_split(self):
        from repro.cluster import uniform_cluster
        from repro.runtime import SpmdRuntime

        rt = SpmdRuntime(uniform_cluster(2))

        def prog(ctx):
            pc = _pc(ctx)
            from repro.nn.module import Parameter

            params = []
            for i in range(4):
                p = Parameter(np.ones(1000, dtype=np.float32))
                p.grad = Tensor(np.ones(1000, dtype=np.float32))
                params.append(p)
            sync_gradients(params, pc.comm(ParallelMode.DATA), bucket_mb=0.003)
            return True

        rt.run(prog)
        assert rt.group((0, 1)).counters.by_op_calls["all_reduce"] >= 2

    def test_skips_paramless_grads(self):
        def prog(ctx):
            pc = _pc(ctx)
            from repro.nn.module import Parameter

            p = Parameter(np.ones(4, dtype=np.float32))  # no grad
            sync_gradients([p], pc.comm(ParallelMode.DATA))
            return p.grad is None

        assert all(run_spmd(2, prog))

    def test_single_rank_noop(self):
        def prog(ctx):
            pc = _pc(ctx)
            from repro.nn.module import Parameter

            p = Parameter(np.ones(4, dtype=np.float32))
            p.grad = Tensor(np.full(4, 2.0, dtype=np.float32))
            sync_gradients([p], pc.comm(ParallelMode.TENSOR))  # size-1 group
            return p.grad.numpy()[0]

        assert run_spmd(2, prog) == [2.0, 2.0]

    def test_spec_mode_charges_comm(self):
        def prog(ctx):
            pc = _pc(ctx)
            from repro.nn.module import Parameter

            p = Parameter(SpecArray((1000,), "float32"))
            p.grad = Tensor(SpecArray((1000,), "float32"))
            sync_gradients([p], pc.comm(ParallelMode.DATA))
            return ctx.clock.time

        assert all(t > 0 for t in run_spmd(2, prog, materialize=False))


class TestMemoryReturnsWithoutTheCollector:
    """Simulated memory must not depend on collector timing: once the rank
    program returns, every parameter and gradient byte is back in the pool
    by reference counting alone.  (The overlap hooks used to close a cycle
    param -> bound method -> DDP -> module -> param.)"""

    @pytest.mark.parametrize("overlap", [False, True])
    def test_pools_empty_after_run_with_gc_disabled(self, overlap):
        import gc

        from repro.cluster import uniform_cluster
        from repro.runtime import SpmdRuntime

        cluster = uniform_cluster(2)
        rt = SpmdRuntime(cluster, 2, comm_overlap=overlap)

        def prog(ctx):
            ddp = DistributedDataParallel(Linear(64, 64), _pc(ctx), overlap=overlap)
            assert ddp.overlap is overlap
            ddp(Tensor(SpecArray((4, 64)))).sum().backward()
            ddp.sync()
            return ctx.device.memory.breakdown()

        gc.collect()
        gc.disable()
        try:
            live = rt.run(prog, materialize=False)
            after = [cluster.device(r).memory.allocated for r in range(2)]
        finally:
            gc.enable()
        for tags in live:  # Linear(64, 64) fp32: weight + bias, and grads
            assert tags["param"] == tags["grad"] == 16640
        assert after == [0, 0]

    def test_hook_outliving_its_wrapper_is_inert(self):
        def prog(ctx):
            model = Linear(8, 8)
            DistributedDataParallel(model, _pc(ctx), overlap=True)  # dropped
            x = Tensor(SpecArray((2, 8)), requires_grad=True)
            model(x).sum().backward()
            return model.weight.grad is not None

        assert run_spmd(2, prog, materialize=False) == [True, True]


class TestShardBatch:
    def test_even_split(self):
        def prog(ctx):
            pc = _pc(ctx)
            return shard_batch(np.arange(8), pc).tolist()

        res = run_spmd(4, prog)
        assert res[0] == [0, 1] and res[3] == [6, 7]

    def test_indivisible_rejected(self):
        def prog(ctx):
            pc = _pc(ctx)
            shard_batch(np.arange(7), pc)

        from repro.runtime import RemoteRankError

        with pytest.raises(RemoteRankError):
            run_spmd(4, prog)
