"""Comm/compute overlap beyond parity.

Overlap is a pure *scheduling* change: that every training program reads
the same results and wire bytes with overlap on as off, at a makespan no
longer, is relation 5 of the conformance oracle (``test_conformance``).
Here: overlap's refusals (a gradient accumulated twice, a round mixing
blocking and nonblocking members, gradient accumulation under overlap), the
Fig-13b paper-scale win, spec-mode byte parity for non-materialized
gradient buckets, hypothesis properties of the gradient bucketizer, and the
overlap x fault-injection composition (``-m "overlap and chaos"``).
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
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.faults import FaultPlan
from repro.nn import CrossEntropyLoss, Linear, Module, Sequential, TransformerLayer
from repro.nn.module import Parameter
from repro.parallel.data import DistributedDataParallel, _bucketize, sync_gradients
from repro.runtime import RemoteRankError, SpmdRuntime
from repro.tensor import Tensor

from test_conformance import B, H, batch, bits, ddp_prog, mlp

pytestmark = pytest.mark.overlap


def _pc(ctx):
    return ParallelContext(ctx, Config.from_dict({}))


def _train_ddp(fault_plan=None):
    """Two overlapped DDP steps on four uniform ranks."""
    rt = SpmdRuntime(uniform_cluster(4), comm_overlap=True, fault_plan=fault_plan)
    results = rt.run(lambda ctx: bits(ddp_prog(overlap=True)(ctx)))
    return results, rt.world_group.counters, rt.max_time()


class TestDDPOverlapParity:
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


# -- overlap x fault injection ---------------------------------------------


@pytest.mark.chaos
class TestOverlapUnderFaults:
    def test_ddp_overlap_heals_glitches_bitwise(self, fault_seed):
        """Transient collective glitches retry on the comm stream; the
        healed overlap run matches the fault-free one bitwise and the
        retries surface in the counters and the simulated time."""
        res_clean, cnt_clean, t_clean = _train_ddp()
        res_faulty, cnt_faulty, t_faulty = _train_ddp(
            FaultPlan(seed=fault_seed).glitch(op="all_reduce", attempts=2))
        assert res_faulty == res_clean
        assert cnt_faulty.retries_total > 0
        assert t_faulty > t_clean
        # retransmitted bytes really cross the wire
        assert cnt_faulty.bytes_total > cnt_clean.bytes_total


# -- engine / config wiring ------------------------------------------------


class TestEngineOverlapWiring:
    def test_gradient_accumulation_rejects_overlap(self):
        from repro.engine import initialize
        from repro.engine.initialize import launch
        from repro.optim import Adam

        def fn(ctx, pc):
            model = mlp()
            engine = initialize(
                model, Adam(model.parameters(), lr=1e-2), CrossEntropyLoss(), pc=pc
            )
            engine.gradient_accumulation = 2
            X, Y = batch(0)
            loss = engine.criterion(engine(Tensor(X[:B].copy())), Y[:B])
            engine.backward(loss)

        for zero in (0, 1, 2):  # DDP's hooks, then the ZeRO chunks'
            with pytest.raises(RemoteRankError, match="overlap=False"):
                launch(dict(zero=dict(stage=zero), comm=dict(overlap=True)),
                       uniform_cluster(2), fn, world_size=2)


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
                    ddp._flush(bi)
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
