"""Differential parity for comm/compute overlap (ISSUE 5).

Overlap is a pure *scheduling* change: nonblocking collectives on a
per-rank comm stream must leave every numeric bitwise identical to the
blocking schedule — same losses, same parameters, same wire bytes — while
simulated step time only ever improves.  The tests here run each hot path
(DDP bucket flushing, ZeRO prefetch + async reduce-scatter, pipeline
stream sends) twice, overlap off and on, and diff the runs.

Also here: hypothesis properties of the gradient bucketizer, spec-mode
byte parity for non-materialized gradient buckets, and the overlap x
fault-injection composition (``-m "overlap and chaos"``).
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.autograd import ops
from repro.cluster import system_ii, uniform_cluster
from repro.comm import Communicator, SpecArray
from repro.comm.cost import CostModel
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.faults import FaultPlan
from repro.nn import CrossEntropyLoss, Linear, Module, Sequential, TransformerLayer
from repro.nn.module import Parameter
from repro.parallel.data import DistributedDataParallel, _bucketize, sync_gradients
from repro.parallel.pipeline import GPipeSchedule, OneFOneBSchedule, partition_uniform
from repro.runtime import RemoteRankError, SpmdRuntime
from repro.tensor import Tensor
from repro.zero import ZeroOffloadEngine
from repro.zero.policies import NoOffloadPolicy

pytestmark = pytest.mark.overlap

H, C, B = 16, 4, 8
LR = 0.05


def _pc(ctx):
    return ParallelContext(ctx, Config.from_dict({}))


class _MLP(Module):
    def __init__(self):
        super().__init__()
        self.l1 = Linear(H, 32, rng=np.random.default_rng(11))
        self.l2 = Linear(32, 32, rng=np.random.default_rng(12))
        self.l3 = Linear(32, C, rng=np.random.default_rng(13))

    def forward(self, x):
        return self.l3(ops.gelu(self.l2(ops.gelu(self.l1(x)))))


def _batch(step):
    rng = np.random.default_rng((7, step))
    X = rng.standard_normal((2 * B, H)).astype(np.float32)
    Y = rng.integers(0, C, 2 * B)
    return X, Y


# -- DDP -------------------------------------------------------------------


def _train_ddp(overlap, world=4, steps=2, fault_plan=None, fault_seed=0):
    plan = None
    if fault_plan is not None:
        plan = fault_plan(fault_seed)
    rt = SpmdRuntime(uniform_cluster(world), comm_overlap=overlap, fault_plan=plan)
    crit = CrossEntropyLoss()

    def prog(ctx):
        pc = _pc(ctx)
        model = _MLP()
        # ~2 KiB buckets: the three layers split across several buckets so
        # early buckets flush while later layers' backward still computes
        ddp = DistributedDataParallel(model, pc, bucket_mb=0.002, overlap=overlap)
        losses = []
        for s in range(steps):
            X, Y = _batch(s)
            n = X.shape[0] // pc.data_size
            xl = X[ctx.rank * n : (ctx.rank + 1) * n]
            yl = Y[ctx.rank * n : (ctx.rank + 1) * n]
            loss = crit(ddp(Tensor(xl.copy())), yl)
            loss.backward()
            ddp.sync()
            for p in model.parameters():
                p.payload[...] = p.payload - LR * p.grad.payload
                p.grad = None
            losses.append(loss.item())
        return losses, [p.numpy().copy() for p in model.parameters()]

    results = rt.run(prog)
    counters = rt.group(tuple(range(world))).counters
    return results, counters, rt.max_time()


class TestDDPOverlapParity:
    def test_bitwise_parity_and_speedup(self):
        res_off, cnt_off, t_off = _train_ddp(overlap=False)
        res_on, cnt_on, t_on = _train_ddp(overlap=True)
        for (losses_off, params_off), (losses_on, params_on) in zip(res_off, res_on):
            assert losses_on == losses_off  # bitwise: floats compared exact
            for a, b in zip(params_off, params_on):
                np.testing.assert_array_equal(a, b)
        # identical traffic: bucket composition differs (reversed layout)
        # but wire bytes are linear in payload bytes
        assert cnt_on.bytes_total == cnt_off.bytes_total
        assert cnt_on.by_op_bytes == cnt_off.by_op_bytes
        # overlap never slows a step down, and with multiple buckets the
        # early flushes hide behind remaining backward -> strictly faster
        assert t_on < t_off
        # the hidden time is visible in the counters
        assert cnt_on.overlapped_seconds_total > 0.0
        assert cnt_off.overlapped_seconds_total == 0.0

    def test_overlap_time_non_increasing_single_bucket(self):
        """Even with one giant bucket (flushes at the very end of backward,
        nothing left to hide behind) overlap must not cost time."""

        def run(overlap):
            rt = SpmdRuntime(uniform_cluster(2), comm_overlap=overlap)
            crit = CrossEntropyLoss()

            def prog(ctx):
                pc = _pc(ctx)
                model = _MLP()
                ddp = DistributedDataParallel(
                    model, pc, bucket_mb=25.0, overlap=overlap
                )
                X, Y = _batch(0)
                loss = crit(ddp(Tensor(X[:B].copy())), Y[:B])
                loss.backward()
                ddp.sync()
                return model.l1.weight.grad.numpy().copy()

            res = rt.run(prog)
            return res, rt.max_time()

        res_off, t_off = run(False)
        res_on, t_on = run(True)
        np.testing.assert_array_equal(res_on[0], res_off[0])
        assert t_on <= t_off + 1e-12

    def test_double_grad_accumulation_raises(self):
        """A parameter reused in the graph accumulates twice per backward;
        overlap must refuse loudly instead of desyncing the buckets."""

        def prog(ctx):
            pc = _pc(ctx)
            model = Linear(H, H, rng=np.random.default_rng(1))
            ddp = DistributedDataParallel(model, pc, overlap=True)
            x = Tensor(np.ones((2, H), dtype=np.float32))
            out = ops.add(ddp(x), ddp(x))  # weight used twice
            out.backward(Tensor(np.ones((2, H), dtype=np.float32)))

        rt = SpmdRuntime(uniform_cluster(2), comm_overlap=True)
        with pytest.raises(RemoteRankError, match="twice"):
            rt.run(prog)

    def test_mixed_blocking_nonblocking_round_rejected(self):
        """Handle completion defines the rendezvous; a group where one rank
        calls blocking and another nonblocking is a program bug and must
        fail the round for everyone."""

        def prog(ctx):
            c = Communicator.world(ctx)
            x = np.ones(4, dtype=np.float32)
            if ctx.rank == 0:
                return c.all_reduce(x)
            return c.iallreduce(x).wait()

        rt = SpmdRuntime(uniform_cluster(2), comm_overlap=True)
        with pytest.raises(RemoteRankError, match="mixes blocking and nonblocking"):
            rt.run(prog)

    def test_mixed_mode_round_is_deleted_by_its_last_claimer(self):
        """Three ranks, the two nonblocking ones arriving one after the
        other once the blocking one is parked: each raises the mixed-mode
        error, and the last of them — a mismatching rank, which claims the
        round on its way out of the mode check — deletes it (it used to
        stay in ``_rounds`` until the next ``reset_rounds``)."""

        def prog(ctx):
            c = Communicator.world(ctx)
            x = np.ones(4, dtype=np.float32)
            try:
                if ctx.rank == 0:
                    c.all_reduce(x)
                else:
                    time.sleep(0.2 * ctx.rank)
                    c.iallreduce(x)
            except RuntimeError as err:
                return str(err)

        rt = SpmdRuntime(uniform_cluster(3), comm_overlap=True)
        errors = rt.run(prog)
        assert all("mixes blocking and nonblocking" in e for e in errors)
        assert rt.world_group._rounds == {}


def _fig13b_step(overlap):
    """One DDP training step of the Fig-13b ViT (16 checkpointed fp16
    layers of width 3072, 196 patches, global batch 64) on System II's
    eight GPUs, spec mode."""
    rt = SpmdRuntime(system_ii(), 8, comm_overlap=overlap)

    def prog(ctx):
        vit = Sequential([TransformerLayer(3072, 48, dtype="float16") for _ in range(16)],
                         checkpoint=True)
        ddp = DistributedDataParallel(vit, _pc(ctx), overlap=overlap)
        x = Tensor(SpecArray((64 // 8, 196, 3072), "float16"),
                   requires_grad=True)
        ddp(x).sum().backward()
        ddp.sync()

    rt.run(prog, materialize=False)
    return rt.max_time(), rt.world_group.counters, rt


class TestFig13bOverlapWin:
    def test_overlap_hides_a_fifth_of_the_step_at_equal_wire_bytes(self):
        """The paper-scale claim: gradient buckets all-reduced from the
        backward hooks hide behind the remaining backward compute.  The
        literals were frozen before the event-driven rendezvous, pooled
        buffers and spec-mode shortcuts, none of which may move them."""
        t_off, cnt_off, _ = _fig13b_step(overlap=False)
        t_on, cnt_on, _ = _fig13b_step(overlap=True)
        assert (t_on, cnt_on.bytes_total, cnt_on.calls_total) == (
            0.45074712087148694, 50752192512, 97)
        assert t_off == 0.5696695808672654
        assert cnt_off.bytes_total == cnt_on.bytes_total
        assert 1.0 - t_on / t_off >= 0.15
        assert cnt_on.overlapped_seconds_total > 0.0
        assert cnt_off.overlapped_seconds_total == 0.0

    def test_overlap_sums_have_no_order(self):
        """The five sums that cross threads — the group's exposed /
        overlapped totals and each stream's busy / exposed / overlapped
        seconds — are correctly rounded over their terms, so twelve reruns
        read one value each (added with ``+=`` in arrival order they read
        ``…15abp-1`` ten times and ``…15acp-1`` twice)."""
        seen = set()
        for _ in range(12):
            _, cnt, rt = _fig13b_step(overlap=True)
            seen.add((
                cnt.exposed_seconds_total.hex(),
                cnt.overlapped_seconds_total.hex(),
                tuple(tuple(sorted(s.breakdown().items()))
                      for s in rt.comm_streams),
            ))
        assert len(seen) == 1, seen


# -- ZeRO ------------------------------------------------------------------


def _zero_blocks():
    class Block(Module):
        def __init__(self, seed, out=H):
            super().__init__()
            self.lin = Linear(H, out, rng=np.random.default_rng(seed))

        def forward(self, x):
            y = self.lin(x)
            return ops.gelu(y) if self.lin.out_features == H else y

    return [Block(21), Block(22), Block(23, out=C)]


def _train_zero(overlap, world=2, steps=2):
    rt = SpmdRuntime(uniform_cluster(world), comm_overlap=overlap)
    crit = CrossEntropyLoss()

    def prog(ctx):
        comm = Communicator.world(ctx)
        blocks = _zero_blocks()
        pol = NoOffloadPolicy(ctx.device, ctx.cpu, CostModel(ctx.cluster), ctx.rank)
        eng = ZeroOffloadEngine(
            ctx, blocks, comm, pol, criterion=crit,
            chunk_mb=0.001, lr=1e-2, param_dtype="float32", overlap=overlap,
        )
        losses = []
        for s in range(steps):
            X, Y = _batch(s)
            n = X.shape[0] // world
            losses.append(
                eng.train_step(X[ctx.rank * n : (ctx.rank + 1) * n],
                               Y[ctx.rank * n : (ctx.rank + 1) * n])
            )
        eng.gather_parameters()
        return losses, [b.lin.weight.numpy().copy() for b in blocks]

    results = rt.run(prog)
    counters = rt.group(tuple(range(world))).counters
    return results, counters, rt.max_time()


class TestZeroOverlapParity:
    def test_bitwise_parity_and_traffic(self):
        res_off, cnt_off, t_off = _train_zero(overlap=False)
        res_on, cnt_on, t_on = _train_zero(overlap=True)
        for (losses_off, ws_off), (losses_on, ws_on) in zip(res_off, res_on):
            assert losses_on == losses_off
            for a, b in zip(ws_off, ws_on):
                np.testing.assert_array_equal(a, b)
        # prefetch/async reduce-scatter move the same bytes, just earlier
        assert cnt_on.bytes_total == cnt_off.bytes_total
        assert cnt_on.by_op_bytes == cnt_off.by_op_bytes
        assert cnt_on.calls_total == cnt_off.calls_total
        assert t_on <= t_off + 1e-12
        assert cnt_on.overlapped_seconds_total > 0.0


# -- pipeline --------------------------------------------------------------


def _run_pipeline(sched_cls, overlap, stages=2, microbatches=4):
    rt = SpmdRuntime(uniform_cluster(stages), comm_overlap=overlap)
    crit = CrossEntropyLoss()
    X, Y = _batch(0)

    class Stage(Module):
        def __init__(self, idxs, with_tail):
            super().__init__()
            self.layers = [Linear(H, H, rng=np.random.default_rng((31, i)))
                           for i in idxs]
            for i, l in enumerate(self.layers):
                setattr(self, f"lin{i}", l)
            self.head = (
                Linear(H, C, rng=np.random.default_rng(35)) if with_tail else None
            )

        def forward(self, x):
            for l in self.layers:
                x = ops.gelu(l(x))
            return self.head(x) if self.head is not None else x

    def prog(ctx):
        pc = ParallelContext(
            ctx,
            Config.from_dict(
                dict(parallel=dict(pipeline=stages), num_microbatches=microbatches)
            ),
        )
        s, e = partition_uniform(4, stages)[pc.pp_rank]
        stage = Stage(range(s, e), with_tail=pc.is_last_pipeline_stage())
        sched = sched_cls(pc, microbatches)
        loss = sched.run(
            stage,
            X.copy() if pc.is_first_pipeline_stage() else None,
            Y if pc.is_last_pipeline_stage() else None,
            crit,
        )
        g = stage.layers[0].weight.grad.numpy().copy()
        return loss, g

    results = rt.run(prog)
    return results, rt.max_time()


class TestPipelineOverlapParity:
    @pytest.mark.parametrize("sched_cls", [GPipeSchedule, OneFOneBSchedule])
    def test_bitwise_parity_and_time(self, sched_cls):
        res_off, t_off = _run_pipeline(sched_cls, overlap=False)
        res_on, t_on = _run_pipeline(sched_cls, overlap=True)
        for (loss_off, g_off), (loss_on, g_on) in zip(res_off, res_on):
            assert loss_on == loss_off
            np.testing.assert_array_equal(g_on, g_off)
        # stream isend frees the sender immediately; makespan can only drop
        assert t_on <= t_off + 1e-12


# -- overlap x fault injection ---------------------------------------------


@pytest.mark.chaos
class TestOverlapUnderFaults:
    def test_ddp_overlap_heals_glitches_bitwise(self, fault_seed):
        """Transient collective glitches retry on the comm stream; the
        healed overlap run matches the fault-free one bitwise and the
        retries surface in the counters and the simulated time."""
        res_clean, cnt_clean, t_clean = _train_ddp(overlap=True)
        res_faulty, cnt_faulty, t_faulty = _train_ddp(
            overlap=True,
            fault_plan=lambda s: FaultPlan(seed=s).glitch(op="all_reduce", attempts=2),
            fault_seed=fault_seed,
        )
        for (losses_c, params_c), (losses_f, params_f) in zip(res_clean, res_faulty):
            assert losses_f == losses_c
            for a, b in zip(params_c, params_f):
                np.testing.assert_array_equal(a, b)
        assert cnt_faulty.retries_total > 0
        assert t_faulty > t_clean
        # retransmitted bytes really cross the wire
        assert cnt_faulty.bytes_total > cnt_clean.bytes_total


# -- engine / config wiring ------------------------------------------------


class TestEngineOverlapWiring:
    def test_initialize_auto_wraps_and_matches_blocking(self):
        from repro.engine import initialize
        from repro.engine.initialize import launch
        from repro.optim import Adam

        def run(overlap):
            crit = CrossEntropyLoss()

            def fn(ctx, pc):
                model = _MLP()
                opt = Adam(model.parameters(), lr=1e-2)
                engine = initialize(model, opt, crit, pc=pc)
                if overlap:
                    assert isinstance(engine.model, DistributedDataParallel)
                    assert engine.model.overlap
                else:
                    assert not isinstance(engine.model, DistributedDataParallel)
                losses = []
                for s in range(2):
                    X, Y = _batch(s)
                    n = X.shape[0] // pc.data_size
                    xl = X[ctx.rank * n : (ctx.rank + 1) * n]
                    yl = Y[ctx.rank * n : (ctx.rank + 1) * n]
                    engine.zero_grad()
                    loss = engine.criterion(engine(Tensor(xl.copy())), yl)
                    engine.backward(loss)
                    engine.step()
                    losses.append(loss.item())
                return losses, [p.numpy().copy() for p in model.parameters()]

            return launch(
                dict(comm=dict(overlap=overlap)), uniform_cluster(2), fn,
                world_size=2,
            )

        res_off = run(False)
        res_on = run(True)
        for (losses_off, params_off), (losses_on, params_on) in zip(res_off, res_on):
            assert losses_on == losses_off
            for a, b in zip(params_off, params_on):
                np.testing.assert_array_equal(a, b)

    def test_gradient_accumulation_rejects_overlap(self):
        from repro.engine import initialize
        from repro.engine.initialize import launch
        from repro.optim import Adam

        def fn(ctx, pc):
            model = _MLP()
            engine = initialize(
                model, Adam(model.parameters(), lr=1e-2), CrossEntropyLoss(), pc=pc
            )
            engine.gradient_accumulation = 2
            X, Y = _batch(0)
            loss = engine.criterion(engine(Tensor(X[:B].copy())), Y[:B])
            engine.backward(loss)

        with pytest.raises(RemoteRankError, match="overlap=False"):
            launch(
                dict(comm=dict(overlap=True)), uniform_cluster(2), fn, world_size=2
            )


# -- spec-mode byte parity (non-materialized gradient buckets) -------------


class TestSpecModeBucketBytes:
    def _bytes_for(self, materialized, overlap):
        rt = SpmdRuntime(uniform_cluster(2), comm_overlap=overlap)

        def prog(ctx):
            pc = _pc(ctx)
            params = []
            for i in range(6):
                if materialized:
                    p = Parameter(np.ones(1000, dtype=np.float32))
                    p.grad = Tensor(np.ones(1000, dtype=np.float32))
                else:
                    p = Parameter(SpecArray((1000,), "float32"))
                    p.grad = Tensor(SpecArray((1000,), "float32"))
                params.append(p)
            if overlap:
                model = Module()
                for i, p in enumerate(params):
                    setattr(model, f"p{i}", p)
                ddp = DistributedDataParallel(
                    model, pc, bucket_mb=0.003, overlap=True
                )
                for bi in range(len(ddp._buckets)):
                    ddp._flush_bucket(bi)
                ddp._flushed = [True] * len(ddp._buckets)
                ddp.sync()
            else:
                sync_gradients(params, pc.comm(ParallelMode.DATA), bucket_mb=0.003)
            return True

        rt.run(prog, materialize=materialized)
        cnt = rt.group((0, 1)).counters
        return cnt.bytes_total, dict(cnt.by_op_bytes)

    def test_spec_grads_charge_same_bytes_blocking(self):
        """The non-materialized bucket path must price exactly like the
        materialized one: same total, same per-op split."""
        real = self._bytes_for(materialized=True, overlap=False)
        spec = self._bytes_for(materialized=False, overlap=False)
        assert spec == real
        assert real[0] > 0

    def test_spec_grads_charge_same_bytes_overlap(self):
        real = self._bytes_for(materialized=True, overlap=True)
        spec = self._bytes_for(materialized=False, overlap=True)
        assert spec == real
        assert real[0] > 0

    def test_overlap_and_blocking_bytes_agree_in_spec_mode(self):
        blocking = self._bytes_for(materialized=False, overlap=False)
        stream = self._bytes_for(materialized=False, overlap=True)
        assert stream[0] == blocking[0]


# -- bucketizer properties -------------------------------------------------

fast = settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_sizes = st.lists(st.integers(1, 4096), min_size=0, max_size=40)
_caps = st.integers(8, 2048)


class TestBucketizeProperties:
    @given(sizes=_sizes, cap=_caps)
    @fast
    def test_partition_preserves_order(self, sizes, cap):
        """Every param lands in exactly one bucket; concatenating the
        buckets reproduces the input order; no bucket is empty."""
        params = [SimpleNamespace(nbytes=n, i=i) for i, n in enumerate(sizes)]
        buckets = _bucketize(params, cap)
        flat = [p for b in buckets for p in b]
        assert [p.i for p in flat] == list(range(len(params)))
        assert all(b for b in buckets)

    @given(sizes=_sizes, cap=_caps)
    @fast
    def test_byte_cap_rule(self, sizes, cap):
        """A bucket only exceeds the cap through its *last* member: the sum
        of all but the last param is always under the cap."""
        params = [SimpleNamespace(nbytes=n) for n in sizes]
        for bucket in _bucketize(params, cap):
            assert sum(p.nbytes for p in bucket[:-1]) < cap

    @given(sizes=_sizes, cap=_caps)
    @fast
    def test_oversized_param_isolated(self, sizes, cap):
        """A param at/over the cap sits alone — it must not drag previously
        accumulated small params past the cap with it (the latent bug this
        PR fixed)."""
        params = [SimpleNamespace(nbytes=n) for n in sizes]
        for bucket in _bucketize(params, cap):
            for p in bucket:
                if p.nbytes >= cap:
                    assert bucket == [p]

    def test_oversized_flushes_accumulated_first(self):
        """Regression: [small, small, huge] must yield [[s, s], [huge]],
        not [[s, s, huge]]."""
        s1, s2 = SimpleNamespace(nbytes=10), SimpleNamespace(nbytes=10)
        huge = SimpleNamespace(nbytes=500)
        assert _bucketize([s1, s2, huge], 100) == [[s1, s2], [huge]]
        assert _bucketize([huge, s1, s2], 100) == [[huge], [s1, s2]]
