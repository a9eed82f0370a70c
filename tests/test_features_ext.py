"""Extended features: vocab-parallel CE, causal ring attention,
isend, gradient accumulation."""

import numpy as np
import pytest

from repro.cluster import system_iii, uniform_cluster
from repro.comm import Communicator, SpecArray
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.nn import CrossEntropyLoss, Linear, MultiHeadAttention, TransformerLayer
from repro.parallel.sequence import ModeSequence
from repro.parallel.vocab_ce import vocab_parallel_cross_entropy
from repro.project import capture_on, project
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor
from repro.tensor.sharding import shard_payload

from conftest import run_spmd
from parity_helpers import ATOL, block


class TestVocabParallelCE:
    def _setup(self, n=6, v=16, seed=0):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((n, v)).astype(np.float32)
        targets = rng.integers(0, v, n)
        return logits, targets

    def test_loss_matches_serial(self):
        logits_g, targets = self._setup()
        ref = CrossEntropyLoss()(Tensor(logits_g.copy()), targets).item()

        def prog(ctx):
            comm = Communicator.world(ctx)
            local = Tensor(block(logits_g, 1, 4, ctx.rank), requires_grad=True)
            loss = vocab_parallel_cross_entropy(local, targets, comm)
            return loss.item()

        for loss in run_spmd(4, prog):
            assert loss == pytest.approx(ref, rel=1e-5)

    def test_grads_match_serial_shards(self):
        logits_g, targets = self._setup(seed=1)
        serial = Tensor(logits_g.copy(), requires_grad=True)
        CrossEntropyLoss()(serial, targets).backward()
        ref_grad = serial.grad.numpy()

        def prog(ctx):
            comm = Communicator.world(ctx)
            local = Tensor(block(logits_g, 1, 4, ctx.rank), requires_grad=True)
            vocab_parallel_cross_entropy(local, targets, comm).backward()
            return ctx.rank, local.grad.numpy()

        for r, g in run_spmd(4, prog):
            np.testing.assert_allclose(g, block(ref_grad, 1, 4, r), atol=1e-5)

    def test_3d_logits(self):
        rng = np.random.default_rng(2)
        logits_g = rng.standard_normal((2, 3, 8)).astype(np.float32)
        targets = rng.integers(0, 8, (2, 3))
        ref = CrossEntropyLoss()(Tensor(logits_g.copy()), targets).item()

        def prog(ctx):
            comm = Communicator.world(ctx)
            local = Tensor(block(logits_g, 2, 2, ctx.rank), requires_grad=True)
            return vocab_parallel_cross_entropy(local, targets, comm).item()

        for loss in run_spmd(2, prog):
            assert loss == pytest.approx(ref, rel=1e-5)

    def test_no_logit_gather_traffic(self):
        """The point of the op: wire bytes are O(N), not O(N*V)."""
        from repro.runtime import SpmdRuntime

        rt = SpmdRuntime(uniform_cluster(4))
        n, v = 64, 4096
        logits_g = np.zeros((n, v), dtype=np.float32)
        targets = np.zeros(n, dtype=np.int64)

        def prog(ctx):
            comm = Communicator.world(ctx)
            local = Tensor(block(logits_g, 1, 4, ctx.rank), requires_grad=True)
            vocab_parallel_cross_entropy(local, targets, comm).backward()

        rt.run(prog)
        wire = rt.group((0, 1, 2, 3)).counters.bytes_total
        gather_cost = 4 * n * v * 4  # what an all_gather of logits would move
        assert wire < gather_cost / 10

    def test_spec_mode(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            local = Tensor(SpecArray((8, 4)), requires_grad=True)
            loss = vocab_parallel_cross_entropy(local, SpecArray((8,), "int64"), comm)
            loss.backward()
            return loss.shape, local.grad.shape

        assert run_spmd(4, prog, materialize=False)[0] == ((), (8, 4))


class TestCausalRingAttention:
    def test_matches_serial_causal_mha(self):
        H, NH, B, S = 16, 4, 2, 8
        rng = np.random.default_rng(0)
        x_g = rng.standard_normal((B, S, H)).astype(np.float32)

        serial = MultiHeadAttention(H, NH, causal=True, rng=np.random.default_rng(3))
        xs = Tensor(x_g.copy(), requires_grad=True)
        ys = serial(xs)
        ys.sum().backward()

        def prog(ctx):
            mode = ModeSequence(Communicator.world(ctx))
            attn = MultiHeadAttention(H, NH, causal=True, rng=np.random.default_rng(3), mode=mode)
            x = Tensor(mode.shard_activation(x_g.copy()), requires_grad=True)
            y = attn(x)
            y.sum().backward()
            return ctx.rank, y.numpy(), x.grad.numpy()

        for r, out, xg in run_spmd(4, prog):
            np.testing.assert_allclose(out, block(ys.numpy(), 1, 4, r), atol=ATOL)
            np.testing.assert_allclose(xg, block(xs.grad.numpy(), 1, 4, r), atol=ATOL)

    def test_no_future_leakage(self):
        """Perturbing future tokens must not change earlier outputs."""
        H, NH, B, S = 8, 2, 1, 8
        rng = np.random.default_rng(1)
        x_g = rng.standard_normal((B, S, H)).astype(np.float32)
        x_pert = x_g.copy()
        x_pert[0, -1] += 5.0

        def run_with(x_input):
            def prog(ctx):
                mode = ModeSequence(Communicator.world(ctx))
                attn = MultiHeadAttention(H, NH, causal=True,
                                          rng=np.random.default_rng(3), mode=mode)
                x = Tensor(mode.shard_activation(x_input.copy()))
                return attn(x).numpy()

            return np.concatenate(run_spmd(2, prog), axis=1)

        base = run_with(x_g)
        pert = run_with(x_pert)
        np.testing.assert_allclose(pert[0, :-1], base[0, :-1], atol=1e-5)
        assert not np.allclose(pert[0, -1], base[0, -1])


class TestNonBlockingP2P:
    def test_isend_charges_time_on_wait(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 0:
                t0 = ctx.clock.time
                req = comm.isend(np.zeros(1 << 20, dtype=np.float32), dst=1)
                mid = ctx.clock.time
                req.wait()
                return mid - t0, ctx.clock.time - t0
            comm.recv(src=0)
            return None

        immediate, after_wait = run_spmd(2, prog)[0]
        assert immediate == 0.0
        assert after_wait > 0

    def test_isend_ignores_comm_overlap(self):
        """``isend`` rides the sender's p2p stream whatever
        ``comm_overlap`` says: an ``isend`` / ``recv`` ring across two
        nodes, with compute between issue and wait that first hides the
        intra-node hops and part of the inter-node ones, then part of each,
        ends with the same results, clocks, streams and world counters under
        either flag, threaded and as a recorded replay of its capture."""

        def prog(ctx):
            comm = Communicator.world(ctx)
            n, out = comm.size, []
            for i, compute in enumerate((1.75e-4, 5e-5)):
                x = np.full(1 << 16, float(ctx.rank + i), np.float32)
                outgoing = comm.isend(x, (ctx.rank + 1) % n, tag=i)
                ctx.clock.advance(compute, "compute")
                outgoing.wait()
                out.append(float(comm.recv((ctx.rank - 1) % n, tag=i)[0]))
            return out

        fields = ("bytes_total", "calls_total", "by_op_bytes", "by_op_calls",
                  "exposed_seconds_total", "overlapped_seconds_total")

        def counters(c):
            return {f: getattr(c, f) for f in fields}

        def run(overlap):
            rt = SpmdRuntime(system_iii(n_nodes=2), comm_overlap=overlap)
            results, trace = capture_on(rt, prog, materialize=True)
            threaded = (
                results,
                [(c.time, c.breakdown()) for c in rt.clocks],
                [(s.time, s.breakdown()) for s in rt.comm_streams],
                counters(rt.world_group.counters),
            )
            rep = project(trace, mode="recorded")
            world = trace.groups.index(tuple(rt.world_group.ranks))
            assert rep.step_time == rt.max_time()
            assert [(r.total_time, r.breakdown) for r in rep.per_rank] == threaded[1]
            assert [r.stream for r in rep.per_rank] == [b for _t, b in threaded[2]]
            assert counters(rep.group_counters[world]) == threaded[3]
            return threaded

        off, on = run(False), run(True)
        assert off == on
        exposed, overlapped = (on[3]["exposed_seconds_total"],
                               on[3]["overlapped_seconds_total"])
        assert exposed > 0.0 and overlapped > 0.0


class TestGradientAccumulation:
    def test_accumulated_equals_big_batch(self):
        import repro
        from repro.optim import SGD

        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 4)).astype(np.float32)
        Y = rng.integers(0, 2, 8)
        crit = CrossEntropyLoss()

        def big(ctx, pc):
            model = Linear(4, 2, rng=np.random.default_rng(1))
            eng = repro.initialize(model, SGD(model.parameters(), lr=0.1), crit, pc=pc)
            eng.zero_grad()
            eng.backward(crit(eng(Tensor(X.copy())), Y))
            eng.step()
            return model.weight.numpy().copy()

        def accum(ctx, pc):
            model = Linear(4, 2, rng=np.random.default_rng(1))
            eng = repro.initialize(model, SGD(model.parameters(), lr=0.1), crit, pc=pc)
            eng.gradient_accumulation = 2
            eng.zero_grad()
            stepped = []
            for i in range(2):
                out = eng(Tensor(X[i * 4 : (i + 1) * 4].copy()))
                eng.backward(crit(out, Y[i * 4 : (i + 1) * 4]))
                stepped.append(eng.step())
            return model.weight.numpy().copy(), stepped

        w_big = repro.launch({}, uniform_cluster(1), big)[0]
        w_acc, stepped = repro.launch({}, uniform_cluster(1), accum)[0]
        assert stepped == [False, True]
        np.testing.assert_allclose(w_acc, w_big, atol=1e-6)
