"""ZeRO subsystem: chunks, policies, the ZeRO-3 engine, stages 1-2 on chunks."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import ops
from repro.cluster import uniform_cluster
from repro.cluster.device import Device, DeviceKind
from repro.comm import Communicator, SpecArray
from repro.comm.cost import CostModel
from repro.config import ZERO_STAGES, Config, ConfigError
from repro.engine import initialize, launch
from repro.nn import CrossEntropyLoss, Linear, Module, Parameter, Sequential, TransformerLayer
from repro.optim import SGD, Adam, AdamW
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor
from repro.utils.units import GB, MB
from repro.zero import (
    AdaptivePolicy,
    StaticPolicy,
    ZeroOffloadEngine,
    ZeroRedundancyOptimizer,
    pack_chunks,
)
from repro.zero.chunk import CHUNK_MB
from repro.zero.policies import NoOffloadPolicy

from conftest import run_spmd

H, C, B = 16, 4, 8


def _pack(ctx, params, max_elements=64, dtype="float32"):
    return pack_chunks(params, Communicator.world(ctx), ctx.device, ctx.cpu,
                       max_elements, np.dtype(dtype))


class TestChunkManager:
    """``pack_chunks`` and the chunks it builds."""

    def test_packing_order_and_mapping(self):
        def prog(ctx):
            lin1 = Linear(4, 4, rng=np.random.default_rng(0))
            lin2 = Linear(4, 4, rng=np.random.default_rng(1))
            c1 = _pack(ctx, lin1.parameters())
            c2 = _pack(ctx, lin2.parameters())
            chunks = c1 + c2
            order = [r.param for c in chunks for r in c.records]
            assert order == lin1.parameters() + lin2.parameters()
            return len(chunks), [chunks.index(c) for c in c1], [chunks.index(c) for c in c2]

        n, i1, i2 = run_spmd(2, prog)[0]
        assert n == 2 and i1 == [0] and i2 == [1]

    def test_oversized_param_gets_own_chunk(self):
        def prog(ctx):
            big = Linear(32, 32, bias=False, rng=np.random.default_rng(0))
            return _pack(ctx, big.parameters())[0].capacity

        assert run_spmd(2, prog)[0] == 1024

    def test_values_preserved_through_packing(self):
        def prog(ctx):
            lin = Linear(4, 4, rng=np.random.default_rng(7))
            w_before = lin.weight.numpy().copy()
            _pack(ctx, lin.parameters())
            return np.allclose(lin.weight.numpy(), w_before)

        assert all(run_spmd(2, prog))

    def test_shard_accounting(self):
        def prog(ctx):
            lin = Linear(8, 8, bias=False, rng=np.random.default_rng(0))
            chunks = _pack(ctx, lin.parameters())
            assert len(chunks) == 1
            # after packing, only the live chunk's shard bytes remain (the
            # parameter's own storage is released)
            return ctx.device.memory.breakdown().get("param", 0)

        per_rank = run_spmd(2, prog)[0]
        assert per_rank == 64 // 2 * 4  # 32 elems/rank fp32

    def test_fetch_release_accounting_and_cost(self):
        def prog(ctx):
            lin = Linear(8, 8, bias=False, rng=np.random.default_rng(0))
            chunk = _pack(ctx, lin.parameters())[0]
            cm = CostModel(ctx.cluster)
            base = ctx.device.memory.allocated
            chunk.fetch(cm, ctx.rank, ctx.clock)
            during = ctx.device.memory.allocated
            chunk.release_full()
            after = ctx.device.memory.allocated
            return during - base, after - base, ctx.clock.time

        grew, back, t = run_spmd(2, prog)[0]
        assert grew == 64 * 4  # full chunk
        assert back == 0
        assert t > 0  # allgather charged

    def test_grad_reduce_scatter_averages(self):
        def prog(ctx):
            lin = Linear(2, 2, bias=False, rng=np.random.default_rng(0))
            chunk = _pack(ctx, lin.parameters(), max_elements=4)[0]
            lin.weight.grad = Tensor(np.full((2, 2), float(ctx.rank + 1), dtype=np.float32))
            chunk.reduce_scatter_grads(CostModel(ctx.cluster), ctx.rank, ctx.clock)
            return chunk.grad_shard.tolist(), lin.weight.grad is None

        res = run_spmd(2, prog)
        # mean of [1, 2] = 1.5 everywhere
        assert res[0][0] == [1.5, 1.5]
        assert res[0][1]  # full grads dropped

    def test_fp16_chunk_puts_its_own_bytes_on_the_wire(self):
        """A materialized fp16 chunk stages its gradients in fp16, as a spec
        one does: one 1 M-element reduce-scatter reads the same clock and
        counters either way."""

        def run(materialize):
            rt = SpmdRuntime(uniform_cluster(2))

            def prog(ctx):
                lin = Linear(1024, 1024, bias=False, dtype="float16")
                chunk = _pack(ctx, lin.parameters(), max_elements=1 << 20, dtype="float16")[0]
                lin.weight.grad = Tensor(np.ones((1024, 1024), np.float16) if materialize
                                         else SpecArray((1024, 1024), "float16"))
                chunk.reduce_scatter_grads(CostModel(ctx.cluster), 0, ctx.clock)
                return ctx.clock.time

            times = rt.run(prog, materialize=materialize)
            counters = rt.world_group.counters
            return times, counters.bytes_total, dict(counters.by_op_bytes)

        real = run(True)
        assert real == run(False)
        assert real[1] == 2 * (1 << 20)  # the fp16 flat, not a float32 one

    def test_fp16_storage_reuse_ablation(self):
        """Without reuse, a separate grad-shard allocation appears."""

        def run(reuse):
            def prog(ctx):
                lin = Linear(8, 8, bias=False, rng=np.random.default_rng(0))
                chunk = _pack(ctx, lin.parameters())[0]
                lin.weight.grad = Tensor(np.ones((8, 8), dtype=np.float32))
                before = ctx.device.memory.allocated
                chunk.reduce_scatter_grads(
                    CostModel(ctx.cluster), ctx.rank, ctx.clock,
                    reuse_fp16_storage=reuse,
                )
                return ctx.device.memory.allocated - before

            return run_spmd(2, prog)[0]

        assert run(True) < run(False)

    def test_move_shard_charges_pcie(self):
        def prog(ctx):
            lin = Linear(8, 8, bias=False, rng=np.random.default_rng(0))
            chunk = _pack(ctx, lin.parameters())[0]
            t0 = ctx.clock.time
            chunk.move_shard("cpu", CostModel(ctx.cluster), ctx.rank, ctx.clock)
            moved = ctx.clock.time > t0
            on_cpu = ctx.cpu.memory.breakdown().get("param", 0) > 0
            off_gpu = ctx.device.memory.breakdown().get("param", 0) == 0
            return moved and on_cpu and off_gpu and chunk.location == "cpu"

        assert all(run_spmd(2, prog))


@given(blocks=st.lists(st.lists(st.integers(1, 300), min_size=1, max_size=8),
                       min_size=1, max_size=4),
       dp=st.integers(1, 8), cap=st.integers(1, 600))
@settings(max_examples=60, deadline=None)
def test_pack_chunks_properties(blocks, dp, cap):
    """Packed one call per block: the parameters keep their order, no chunk
    holds two calls' parameters, each chunk is what it holds rounded up to
    the data size, a chunk past the cap holds one parameter, and a chunk
    closes only when the next parameter would push it past the cap."""
    gpu = Device("gpu", DeviceKind.GPU, memory_capacity=1 << 30)
    cpu = Device("cpu", DeviceKind.CPU, memory_capacity=1 << 30)
    comm = SimpleNamespace(size=dp)  # packing reads the group's size only
    limit = -(-cap // dp) * dp
    for sizes in blocks:
        params = [Parameter(SpecArray((n,), "float16"), device=gpu) for n in sizes]
        chunks = pack_chunks(params, comm, gpu, cpu, cap, np.dtype("float16"))
        assert [r.param for c in chunks for r in c.records] == params
        for i, c in enumerate(chunks):
            assert [r.offset for r in c.records] == list(
                np.cumsum([0] + [r.numel for r in c.records[:-1]]))
            assert c.used == sum(r.numel for r in c.records)
            assert c.capacity == -(-c.used // dp) * dp
            if c.used > limit:
                assert len(c.records) == 1
            if i + 1 < len(chunks):
                assert c.used + chunks[i + 1].records[0].numel > limit


def test_fig11_gpt_packs_without_padding():
    """The Fig-11 GPT (16 layers of width 3072, fp16), packed for ZeRO-3 at
    the default chunk size over 8 ranks, one call per layer, holds its
    parameters plus at most ``dp`` elements of padding per chunk."""
    def prog(ctx):
        comm = Communicator.world(ctx)
        layers = [TransformerLayer(3072, 48, dtype="float16") for _ in range(16)]
        chunks = [c for layer in layers
                  for c in pack_chunks(layer.parameters(), comm, ctx.device, ctx.cpu,
                                       int(CHUNK_MB * MB / 2), np.dtype("float16"))]
        n_params = sum(p.size for layer in layers for p in layer.parameters())
        return n_params, len(chunks), sum(c.capacity for c in chunks)

    n_params, n_chunks, held = run_spmd(8, prog, materialize=False)[0]
    assert n_params < 1.82e9
    assert held <= n_params + n_chunks * 8


def _make_blocks(seed):
    rngs = [np.random.default_rng((seed, i)) for i in range(3)]

    class Block(Module):
        def __init__(self, rng, out=H):
            super().__init__()
            self.lin = Linear(H, out, rng=rng)

        def forward(self, x):
            y = self.lin(x)
            return ops.gelu(y) if self.lin.out_features == H else y

    return [Block(rngs[0]), Block(rngs[1]), Block(rngs[2], out=C)]


@pytest.fixture(scope="module")
def serial_zero_ref():
    rng0 = np.random.default_rng(5)
    X = rng0.standard_normal((2 * B, H)).astype(np.float32)
    Y = rng0.integers(0, C, 2 * B)
    crit = CrossEntropyLoss()

    class AdamD(Adam):
        DECOUPLED_WD = True

    blocks = _make_blocks(1)
    params = [p for b in blocks for p in b.parameters()]
    opt = AdamD(params, lr=1e-2)

    def fwd(x):
        for b in blocks:
            x = b(x)
        return x

    for _ in range(3):
        loss = crit(fwd(Tensor(X.copy())), Y)
        loss.backward()
        opt.step()
        opt.zero_grad()
    return {
        "X": X,
        "Y": Y,
        "crit": crit,
        "w": blocks[0].lin.weight.numpy().copy(),
    }


class TestZeroOffloadEngine:
    @pytest.mark.parametrize("policy_cls", [NoOffloadPolicy, StaticPolicy, AdaptivePolicy])
    def test_parity_with_serial_adam(self, serial_zero_ref, policy_cls):
        ref = serial_zero_ref

        def prog(ctx):
            comm = Communicator.world(ctx)
            blocks = _make_blocks(1)
            pol = policy_cls(ctx.device, ctx.cpu, CostModel(ctx.cluster), ctx.rank)
            eng = ZeroOffloadEngine(
                ctx, blocks, comm, pol, criterion=ref["crit"],
                chunk_mb=0.001, lr=1e-2, param_dtype="float32",
            )
            r = ctx.rank
            xl, yl = ref["X"][r * B : (r + 1) * B], ref["Y"][r * B : (r + 1) * B]
            for _ in range(3):
                eng.train_step(xl, yl)
            eng.gather_parameters()
            return blocks[0].lin.weight.numpy().copy()

        for w in run_spmd(2, prog):
            np.testing.assert_allclose(w, ref["w"], atol=1e-4)

    def test_static_slower_than_adaptive(self, serial_zero_ref):
        ref = serial_zero_ref

        def time_for(policy_cls):
            def prog(ctx):
                comm = Communicator.world(ctx)
                blocks = _make_blocks(1)
                pol = policy_cls(ctx.device, ctx.cpu, CostModel(ctx.cluster), ctx.rank)
                eng = ZeroOffloadEngine(
                    ctx, blocks, comm, pol, criterion=ref["crit"],
                    chunk_mb=0.001, lr=1e-2, param_dtype="float32",
                )
                eng.train_step(ref["X"][:B], ref["Y"][:B])
                return ctx.clock.time

            return run_spmd(2, prog)[0]

        assert time_for(StaticPolicy) > time_for(AdaptivePolicy)

    def test_adaptive_offloads_when_gpu_small(self):
        """With a tiny GPU, the adaptive policy must offload some chunks."""
        # ~10 KiB of GPU memory: shards fit, but shards + optimizer states
        # do not, so the policy must offload part of the model
        cluster = uniform_cluster(1, memory_gb=1e-5)
        rt = SpmdRuntime(cluster)

        def prog(ctx):
            comm = Communicator.world(ctx)
            blocks = _make_blocks(1)
            pol = AdaptivePolicy(ctx.device, ctx.cpu, CostModel(ctx.cluster), ctx.rank)
            eng = ZeroOffloadEngine(
                ctx, blocks, comm, pol, criterion=CrossEntropyLoss(),
                chunk_mb=0.0005, lr=1e-2, param_dtype="float32",
            )
            return eng.gpu_param_fraction()

        frac = rt.run(prog)[0]
        assert frac < 1.0

    def test_spec_mode_step(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            blocks = _make_blocks(1)
            pol = StaticPolicy(ctx.device, ctx.cpu, CostModel(ctx.cluster), ctx.rank)
            eng = ZeroOffloadEngine(
                ctx, blocks, comm, pol, criterion=CrossEntropyLoss(),
                chunk_mb=0.001, lr=1e-2, param_dtype="float16",
            )
            loss = eng.train_step(SpecArray((B, H)), SpecArray((B,), "int64"))
            return loss, ctx.clock.time, ctx.cpu.memory.peak

        loss, t, cpu_peak = run_spmd(2, prog, materialize=False)[0]
        assert loss is None and t > 0 and cpu_peak > 0


class TestZeroRedundancyOptimizer:
    def test_stage1_and_stage2_parity(self, serial_zero_ref):
        """Driven directly, without ``initialize``: the chunks' reduce-scatter
        in ``step`` averages the ranks' gradients at both stages."""
        ref = serial_zero_ref

        def prog(ctx, stage):
            blocks = _make_blocks(1)
            params = [p for b in blocks for p in b.parameters()]
            zopt = ZeroRedundancyOptimizer(params, Communicator.world(ctx), stage=stage, lr=1e-2)
            r = ctx.rank
            x = Tensor(ref["X"][r * B : (r + 1) * B].copy())
            for _ in range(3):
                y = x
                for b in blocks:
                    y = b(y)
                ref["crit"](y, ref["Y"][r * B : (r + 1) * B]).backward()
                zopt.step()
                zopt.zero_grad()
            return blocks[0].lin.weight.numpy().copy()

        for stage in (1, 2):
            for w in run_spmd(2, prog, stage):
                np.testing.assert_allclose(w, ref["w"], atol=1e-4)

    def test_state_sharded(self):
        def prog(ctx):
            lin = Linear(16, 16, bias=False, rng=np.random.default_rng(0))
            zopt = ZeroRedundancyOptimizer(lin.parameters(), Communicator.world(ctx), stage=1)
            return ctx.device.memory.breakdown()["optim"], [c.adam["master"].size for c in zopt.chunks]

        # one right-sized chunk of 256 elements; full fp32 m / v / master
        # would be 3 * 4 * 256 bytes, each rank holds 1/4
        assert run_spmd(4, prog) == [(3 * 4 * 256 // 4, [64])] * 4


# ---------------------------------------------------------------------------
# one Adam: every optimizer path runs the same update rule bit for bit
# ---------------------------------------------------------------------------

_LR, _WD = 1e-2, 0.1


def _one_rank_batch():
    rng = np.random.default_rng(5)
    return rng.standard_normal((B, H)).astype(np.float32), rng.integers(0, C, B)


def _chunk_seconds(device, chunks, steps=3):
    """Adam's per-chunk price: each step, every chunk's shard on ``device``."""
    total = 0.0
    for _ in range(steps):
        for c in chunks:
            total += device.compute_seconds(Adam.FLOPS_PER_ELEMENT * c.shard_elems, "float32")
    return total


def _one_rank_adam(ctx, make_opt):
    """Three steps of an optimizer made by ``make_opt(params, comm)`` on the
    full batch of one rank; returns every weight, the optimizer seconds and,
    for a chunked optimizer, their per-chunk price."""
    X, Y = _one_rank_batch()
    blocks = _make_blocks(1)
    params = [p for b in blocks for p in b.parameters()]
    opt = make_opt(params, Communicator.world(ctx))
    crit = CrossEntropyLoss()
    for _ in range(3):
        x = Tensor(X.copy())
        for b in blocks:
            x = b(x)
        crit(x, Y).backward()
        opt.step()
        opt.zero_grad()
    chunks = getattr(opt, "chunks", None)
    return ([p.numpy().copy() for p in params], ctx.clock.breakdown()["optimizer"],
            chunks and _chunk_seconds(ctx.device, chunks))


def _one_rank_engine(ctx, policy_cls):
    X, Y = _one_rank_batch()
    blocks = _make_blocks(1)
    pol = policy_cls(ctx.device, ctx.cpu, CostModel(ctx.cluster), ctx.rank)
    eng = ZeroOffloadEngine(
        ctx, blocks, Communicator.world(ctx), pol, criterion=CrossEntropyLoss(),
        chunk_mb=0.001, lr=_LR, weight_decay=_WD, param_dtype="float32",
    )
    for _ in range(3):
        eng.train_step(X, Y)
    eng.gather_parameters()
    device = ctx.cpu if policy_cls is StaticPolicy else ctx.device
    return ([p.numpy().copy() for b in blocks for p in b.parameters()],
            ctx.clock.breakdown()["optimizer"], _chunk_seconds(device, eng.chunks))


_ADAM_PATHS = {
    "zero1": lambda ctx: _one_rank_adam(
        ctx, lambda ps, comm: ZeroRedundancyOptimizer(
            ps, comm, stage=1, lr=_LR, weight_decay=_WD)),
    "zero2": lambda ctx: _one_rank_adam(
        ctx, lambda ps, comm: ZeroRedundancyOptimizer(
            ps, comm, stage=2, lr=_LR, weight_decay=_WD)),
    "engine_no_offload": lambda ctx: _one_rank_engine(ctx, NoOffloadPolicy),
    "engine_static": lambda ctx: _one_rank_engine(ctx, StaticPolicy),
}


@pytest.fixture(scope="module")
def adamw_one_rank():
    return run_spmd(1, lambda ctx: _one_rank_adam(
        ctx, lambda ps, comm: AdamW(ps, lr=_LR, weight_decay=_WD)))[0]


@pytest.mark.parametrize("path", list(_ADAM_PATHS))
def test_adam_paths_agree_bit_for_bit(adamw_one_rank, path):
    """ZeRO-1/2 and the ZeRO-3 engine, its states on the GPU or (static
    offload) on the host, on one rank with fp32 weights leave exactly the weights a decoupled-decay ``Adam`` does
    after three steps; the chunked paths charge exactly Adam's per-chunk
    price."""
    ref_w = adamw_one_rank[0]
    weights, seconds, chunk_seconds = run_spmd(1, _ADAM_PATHS[path])[0]
    assert len(weights) == len(ref_w)
    for w, r in zip(weights, ref_w):
        np.testing.assert_array_equal(w, r)
    if chunk_seconds is not None:
        assert seconds == chunk_seconds


@pytest.mark.parametrize("stage", [1, 2])
def test_zero_coupled_weight_decay_matches_adam(stage):
    """``decoupled_wd=False`` decays into the gradient, as ``Adam`` does —
    it used to raise halfway through a step, after the gradient collective
    and the moment updates had run."""
    def run(make_opt):
        return run_spmd(1, lambda ctx: _one_rank_adam(ctx, make_opt))[0][0]

    ref = run(lambda ps, comm: Adam(ps, lr=_LR, weight_decay=_WD))
    got = run(lambda ps, comm: ZeroRedundancyOptimizer(
        ps, comm, stage=stage, lr=_LR, weight_decay=_WD, decoupled_wd=False))
    for w, r in zip(got, ref):
        np.testing.assert_array_equal(w, r)


# ---------------------------------------------------------------------------
# one ZeRO switch: initialize() builds the stage cfg.zero names (DESIGN §4z)
# ---------------------------------------------------------------------------


class _Net(Module):
    """Two layers whose 10-element bias pads to 12 when sharded 4 ways."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(3)
        self.fc1, self.fc2 = Linear(H, 10, rng=rng), Linear(10, C, rng=rng)

    def forward(self, x):
        return self.fc2(ops.gelu(self.fc1(x)))


def _zero_launch(zero, overlap=False, steps=3, clipping=0.0):
    """``steps`` Adam (coupled decay) steps through ``launch`` and
    ``initialize`` on 4 data-parallel ranks; per rank, every weight and the
    live ``optim`` bytes."""
    rng = np.random.default_rng(11)
    X = rng.standard_normal((4 * B, H)).astype(np.float32)
    Y = rng.integers(0, C, 4 * B)

    def prog(ctx, pc):
        model = _Net()
        engine = initialize(model, Adam(model.parameters(), lr=1e-2, weight_decay=0.1),
                            CrossEntropyLoss(), pc=pc)
        rows = slice(ctx.rank * B, (ctx.rank + 1) * B)
        for _ in range(steps):
            engine.zero_grad()
            engine.backward(engine.criterion(engine(Tensor(X[rows].copy())), Y[rows]))
            engine.step()
        return ([p.numpy().copy() for p in model.parameters()],
                ctx.device.memory.breakdown().get("optim", 0))

    return launch(dict(zero=dict(stage=zero), comm=dict(overlap=overlap),
                       gradient_clipping=clipping), uniform_cluster(4), prog)


def test_initialize_builds_zero_stages_with_identical_weights():
    """Stages 0, 1 and 2, and stages 1 and 2 under overlap, leave the same
    weights bit for bit on every rank; stages 1 and 2 hold their chunk's
    quarter of Adam's fp32 ``m`` / ``v`` / master (the model is one chunk, its
    214 elements padded to 216), stage 0 all of ``m`` / ``v``."""
    runs = {key: _zero_launch(*key)
            for key in ((0, False), (1, False), (2, False), (1, True), (2, True))}
    sizes = [p.size for p in _Net().parameters()]
    ref = runs[0, False][0][0]
    for (stage, _), per_rank in runs.items():
        for weights, optim in per_rank:
            for w, r in zip(weights, ref):
                np.testing.assert_array_equal(w, r)
            assert optim == (3 * 4 * -(-sum(sizes) // 4) if stage
                             else sum(2 * 4 * n for n in sizes))


@pytest.mark.parametrize("stage", [1, 2])
def test_zero_clips_on_the_norm_of_its_grad_shards(stage):
    """The ranks' squared grad shards, summed by one scalar all-reduce, give
    stage 0's clipped weights up to the norm's float order."""
    unclipped = _zero_launch(0)[0][0]
    ref = _zero_launch(0, clipping=0.1)[0][0]
    assert not all(np.array_equal(w, r) for w, r in zip(unclipped, ref))
    for weights, _ in _zero_launch(stage, clipping=0.1):
        for w, r in zip(weights, ref):
            np.testing.assert_allclose(w, r, rtol=1e-6)


@pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
@pytest.mark.parametrize("data", [2, 4])
@pytest.mark.parametrize("stage", [1, 2])
def test_zero_exchanges_one_reduce_scatter_and_all_gather_per_chunk(stage, data, overlap):
    """A clipped spec step of a two-chunk model (a 64 MiB weight alone, the
    rest in one right-sized chunk) issues on the data group one
    reduce-scatter and one all-gather per chunk and the clipping scalar,
    nothing per parameter.  Under overlap the chunks reduce-scatter from
    backward: stage 2 then holds no full gradient, stage 1 all of them."""
    def prog(ctx, pc):
        model = Sequential([Linear(4096, 4096), Linear(4096, 8)])
        engine = initialize(model, Adam(model.parameters()), pc=pc)
        engine.backward(engine(Tensor(SpecArray((4, 4096)))).sum())
        held = [p.grad is not None for p in model.parameters()]
        engine.step()
        return held

    rt = SpmdRuntime(uniform_cluster(data))
    config = dict(zero=dict(stage=stage), comm=dict(overlap=overlap), gradient_clipping=1.0)
    held = launch(config, rt.cluster, prog, runtime=rt, materialize=False)
    assert held == [[stage == 1 or not overlap] * 4] * data
    assert rt.world_group.counters.by_op_calls == {
        "reduce_scatter": 2, "all_gather": 2, "all_reduce": 1}


def test_golden_system_iv_plan_shards_optimizer_state_64_ways():
    """The System IV compile (``dp64 [zero1, overlap, auto]``, fp16) launched
    through ``initialize()`` holds 1/64 of stage 0's optimizer state."""
    from repro.autopar import Workload, compile_strategy
    from repro.cluster import system_iv

    gpt = Workload(n_layers=16, hidden=3072, n_heads=48, seq_len=196)
    cfg = Config.from_dict(compile_strategy(system_iv(), gpt, 512, world_size=64).config)
    assert cfg.zero.stage == 1 and cfg.fp16.enabled

    def prog(ctx, pc):
        model = Linear(1024, 1024)
        engine = initialize(model, Adam(model.parameters()), pc=pc)
        engine.backward(engine(Tensor(SpecArray((4, 1024), "float16"))).sum())
        engine.step()
        return ctx.device.memory.breakdown()["optim"]

    def optim(stage):
        cfg.zero.stage = stage
        return set(launch(cfg, system_iv(), prog, world_size=64, materialize=False))

    assert optim(0) == {12 * (1024 * 1024 + 1024)}
    assert optim(1) == {12 * (1024 * 1024 + 1024) // 64}


def test_zero_checkpoint_carries_each_chunks_adam_state():
    """A fresh stage-2 optimizer loaded from ``state_dict`` (each chunk's
    shard of ``m`` / ``v`` / master) takes the step the saved one takes."""
    def prog(ctx, pc):
        x = Tensor(np.random.default_rng(ctx.rank).standard_normal((B, H)).astype(np.float32))

        def run(engine, steps):
            for _ in range(steps):
                engine.zero_grad()
                engine.backward(engine(x).sum())
                engine.step()

        models = [_Net(), _Net()]
        engines = [initialize(m, Adam(m.parameters(), lr=1e-2), pc=pc) for m in models]
        run(engines[0], 2)
        models[1].load_state_dict(models[0].state_dict())
        engines[1].optimizer.load_state_dict(engines[0].optimizer.state_dict())
        run(engines[0], 1)
        run(engines[1], 1)
        return all(np.array_equal(p.numpy(), q.numpy())
                   for p, q in zip(*(m.parameters() for m in models)))

    assert all(launch(dict(zero=dict(stage=2)), uniform_cluster(2), prog))


def test_zero_optimizer_refuses_other_stages():
    def prog(ctx):
        with pytest.raises(ValueError, match="stages 1-2"):
            ZeroRedundancyOptimizer(Linear(4, 4).parameters(), Communicator.world(ctx), stage=3)
        return True

    assert all(run_spmd(2, prog))


@pytest.mark.parametrize("zero, extra, make_opt", [
    (3, {}, Adam),
    (1, {}, lambda ps: SGD(ps, lr=0.1)),
], ids=["stage3", "not_adam"])
def test_initialize_rejects_a_zero_stage_it_cannot_build(zero, extra, make_opt):
    def prog(ctx, pc):
        model = Linear(4, 4)
        with pytest.raises(ConfigError, match=r"^zero\.stage"):
            initialize(model, make_opt(model.parameters()), pc=pc)
        return True

    config = dict(extra, zero=dict(stage=zero))
    if zero not in ZERO_STAGES:
        # ZeRO-3 is ZeroOffloadEngine, built directly: the config refuses
        # the stage by name before any rank reaches initialize
        with pytest.raises(ConfigError, match=r"^zero\.stage"):
            launch(config, uniform_cluster(2), prog)
        return
    assert all(launch(config, uniform_cluster(2), prog))
