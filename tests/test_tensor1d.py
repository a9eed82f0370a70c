"""1D (Megatron) tensor parallelism: parity with serial + layer behaviour."""

import numpy as np
import pytest

from repro.cluster import uniform_cluster
from repro.comm import SpecArray
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.nn import FeedForward, MultiHeadAttention, TransformerLayer
from repro.parallel.common import shard_sections
from repro.parallel.tensor1d import (
    ColumnParallelLinear,
    Mode1D,
    RowParallelLinear,
    VocabParallelEmbedding1D,
)
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor

from conftest import run_spmd
from parity_helpers import ATOL, B, H, NH, RATIO, S, SEED, block, make_input, serial_reference


def pc_1d(ctx, size=4):
    return ParallelContext(
        ctx, Config.from_dict(dict(parallel=dict(tensor=dict(size=size, mode="1d"))))
    )


class TestParallelLinears:
    def test_column_parallel_matches_serial(self):
        rng_w = np.random.default_rng(0)
        x_g = np.random.default_rng(1).standard_normal((3, 8)).astype(np.float32)

        def prog(ctx):
            pc = pc_1d(ctx)
            comm = pc.comm(ParallelMode.TENSOR)
            lin = ColumnParallelLinear(8, 12, comm, gather_output=True,
                                       rng=np.random.default_rng(0))
            return lin(Tensor(x_g.copy())).numpy()

        from repro.nn import Linear
        from repro.nn import init as init_mod

        serial = Linear(8, 12, weight_init=init_mod.lecun_normal(), rng=np.random.default_rng(0))
        expect = serial(Tensor(x_g.copy())).numpy()
        for out in run_spmd(4, prog):
            np.testing.assert_allclose(out, expect, atol=ATOL)

    def test_column_parallel_local_shape(self):
        def prog(ctx):
            pc = pc_1d(ctx)
            comm = pc.comm(ParallelMode.TENSOR)
            lin = ColumnParallelLinear(8, 12, comm, rng=np.random.default_rng(0))
            return lin(Tensor(np.zeros((2, 8), dtype=np.float32))).shape

        assert run_spmd(4, prog) == [(2, 3)] * 4

    def test_row_parallel_requires_divisible(self):
        def prog(ctx):
            pc = pc_1d(ctx)
            comm = pc.comm(ParallelMode.TENSOR)
            RowParallelLinear(10, 8, comm)

        from repro.runtime import RemoteRankError

        with pytest.raises(RemoteRankError):
            run_spmd(4, prog)

    def test_sharded_parameters_own_their_bytes(self):
        """An axis-0 shard is a view of the whole payload: held as the
        parameter, it would keep the whole payload alive on every rank."""
        def prog(ctx):
            comm = pc_1d(ctx).comm(ParallelMode.TENSOR)
            row = RowParallelLinear(8, 4, comm, rng=np.random.default_rng(0))
            emb = VocabParallelEmbedding1D(8, 4, comm, rng=np.random.default_rng(0))
            return row.weight.payload.base is None, emb.weight.payload.base is None

        assert run_spmd(4, prog) == [(True, True)] * 4
        full = np.arange(24.0, dtype=np.float32)
        for payload, axis in ((full, 0), (full.reshape(6, 4), -2), (full.reshape(6, 4), 1)):
            shard = shard_sections(payload, axis, 2, 1)
            assert shard.base is None
            np.testing.assert_array_equal(shard, np.split(payload, 2, axis)[1])

    def test_col_row_pair_is_identity_comm_pattern(self):
        """Col->Row composition should use exactly 1 fwd + 1 bwd allreduce."""
        rt = SpmdRuntime(uniform_cluster(4))

        def prog(ctx):
            pc = pc_1d(ctx)
            comm = pc.comm(ParallelMode.TENSOR)
            mlp = FeedForward(H, mlp_ratio=2, rng=np.random.default_rng(0), mode=Mode1D(comm))
            x = Tensor(np.ones((2, H), dtype=np.float32), requires_grad=True)
            mlp(x).sum().backward()

        rt.run(prog)
        counters = rt.group((0, 1, 2, 3)).counters
        assert counters.by_op_calls.get("all_reduce") == 2


class TestTransformerParity:
    def test_full_layer_parity(self):
        x_g = make_input()
        ref = serial_reference(x_g)

        def prog(ctx):
            pc = pc_1d(ctx)
            comm = pc.comm(ParallelMode.TENSOR)
            layer = TransformerLayer(
                H, NH, mlp_ratio=RATIO, rng=np.random.default_rng(SEED), mode=Mode1D(comm)
            )
            x = Tensor(x_g.copy(), requires_grad=True)
            y = layer(x)
            y.sum().backward()
            return (
                y.numpy(),
                x.grad.numpy(),
                layer.mlp.dense_1.weight.grad.numpy(),
                layer.norm_1.gamma.grad.numpy(),
            )

        for r, (out, xg, w1g, lng) in enumerate(run_spmd(4, prog)):
            np.testing.assert_allclose(out, ref["out"], atol=ATOL)
            np.testing.assert_allclose(xg, ref["x_grad"], atol=ATOL)
            np.testing.assert_allclose(
                w1g, block(ref["mlp_w1_grad"], 1, 4, r), atol=ATOL
            )
            # layernorm replicated: full grad everywhere
            np.testing.assert_allclose(lng, ref["ln1_gamma_grad"], atol=ATOL)

    def test_heads_not_divisible_rejected(self):
        def prog(ctx):
            pc = pc_1d(ctx, size=4)
            comm = pc.comm(ParallelMode.TENSOR)
            MultiHeadAttention(12, 6, mode=Mode1D(comm))  # 6 heads % 4 != 0

        from repro.runtime import RemoteRankError

        with pytest.raises(RemoteRankError):
            run_spmd(4, prog)

    def test_memory_is_sharded(self):
        """Each rank holds ~1/p of the layer weights (the point of TP)."""

        def prog(ctx):
            pc = pc_1d(ctx)
            comm = pc.comm(ParallelMode.TENSOR)
            layer = TransformerLayer(
                H, NH, mlp_ratio=RATIO, rng=np.random.default_rng(SEED), mode=Mode1D(comm)
            )
            return layer.num_parameters()

        serial_n = TransformerLayer(H, NH, mlp_ratio=RATIO, rng=np.random.default_rng(SEED)).num_parameters()
        for n in run_spmd(4, prog):
            assert n < 0.5 * serial_n

    def test_spec_mode_runs(self):
        def prog(ctx):
            pc = pc_1d(ctx)
            comm = pc.comm(ParallelMode.TENSOR)
            layer = TransformerLayer(H, NH, mlp_ratio=RATIO, mode=Mode1D(comm))
            x = Tensor(SpecArray((B, S, H)), requires_grad=True)
            layer(x).sum().backward()
            return x.grad.shape, ctx.clock.time

        for shape, t in run_spmd(4, prog, materialize=False):
            assert shape == (B, S, H) and t > 0


class TestVocabParallelEmbedding:
    def test_matches_serial_embedding(self):
        ids = np.random.default_rng(2).integers(0, 16, (2, 5))

        def prog(ctx):
            pc = pc_1d(ctx)
            comm = pc.comm(ParallelMode.TENSOR)
            emb = VocabParallelEmbedding1D(16, 8, comm, rng=np.random.default_rng(3))
            out = emb(ids)
            out.sum().backward()
            return out.numpy(), emb.weight.grad.numpy()

        from repro.nn import Embedding

        serial = Embedding(16, 8, rng=np.random.default_rng(3))
        out_s = serial(ids)
        out_s.sum().backward()
        for r, (out, wg) in enumerate(run_spmd(4, prog)):
            np.testing.assert_allclose(out, out_s.numpy(), atol=ATOL)
            np.testing.assert_allclose(
                wg, block(serial.weight.grad.numpy(), 0, 4, r), atol=ATOL
            )

    def test_vocab_divisibility(self):
        def prog(ctx):
            pc = pc_1d(ctx)
            VocabParallelEmbedding1D(15, 8, pc.comm(ParallelMode.TENSOR))

        from repro.runtime import RemoteRankError

        with pytest.raises(RemoteRankError):
            run_spmd(4, prog)
