"""2D (SUMMA) tensor parallelism: matmul correctness, layer parity,
Table 1 volume."""

import numpy as np
import pytest

from repro.cluster import uniform_cluster
from repro.comm import SpecArray
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.nn import TransformerLayer
from repro.parallel.tensor2d import (
    Linear2D,
    LayerNorm2D,
    ModeGrid,
    Summa2DMatMul,
)
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor

from conftest import run_spmd
from parity_helpers import ATOL, B, H, NH, RATIO, S, SEED, block, make_input, serial_reference


def pc_2d(ctx, size=4):
    return ParallelContext(
        ctx, Config.from_dict(dict(parallel=dict(tensor=dict(size=size, mode="2d"))))
    )


class TestSummaMatmul:
    def test_forward_backward_vs_numpy(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 6)).astype(np.float32)
        W = rng.standard_normal((6, 8)).astype(np.float32)
        G = rng.standard_normal((4, 8)).astype(np.float32)  # upstream grad

        def prog(ctx):
            pc = pc_2d(ctx)
            i, j = pc.row_rank, pc.col_rank
            a = Tensor(block(block(A, 0, 2, i), 1, 2, j), requires_grad=True)
            w = Tensor(block(block(W, 0, 2, i), 1, 2, j), requires_grad=True)
            c = Summa2DMatMul.apply(
                a, w,
                pc.comm(ParallelMode.PARALLEL_2D_ROW),
                pc.comm(ParallelMode.PARALLEL_2D_COL),
            )
            g_local = block(block(G, 0, 2, i), 1, 2, j)
            c.backward(Tensor(g_local))
            return i, j, c.numpy(), a.grad.numpy(), w.grad.numpy()

        C = A @ W
        dA = G @ W.T
        dW = A.T @ G
        for i, j, c, da, dw in run_spmd(4, prog):
            np.testing.assert_allclose(c, block(block(C, 0, 2, i), 1, 2, j), atol=ATOL)
            np.testing.assert_allclose(da, block(block(dA, 0, 2, i), 1, 2, j), atol=ATOL)
            np.testing.assert_allclose(dw, block(block(dW, 0, 2, i), 1, 2, j), atol=ATOL)

    def test_3d_activation_operand(self):
        """Leading batch+seq dims flatten correctly for the weight grad."""
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 3, 6)).astype(np.float32)
        W = rng.standard_normal((6, 8)).astype(np.float32)

        def prog(ctx):
            pc = pc_2d(ctx)
            i, j = pc.row_rank, pc.col_rank
            a = Tensor(block(block(A, 0, 2, i), 2, 2, j), requires_grad=True)
            w = Tensor(block(block(W, 0, 2, i), 1, 2, j), requires_grad=True)
            c = Summa2DMatMul.apply(
                a, w,
                pc.comm(ParallelMode.PARALLEL_2D_ROW),
                pc.comm(ParallelMode.PARALLEL_2D_COL),
            )
            c.sum().backward()
            return i, j, c.numpy(), w.grad.numpy()

        C = A @ W
        dW = A.reshape(-1, 6).T @ np.ones((12, 8), dtype=np.float32)
        for i, j, c, dw in run_spmd(4, prog):
            np.testing.assert_allclose(c, block(block(C, 0, 2, i), 2, 2, j), atol=ATOL)
            np.testing.assert_allclose(dw, block(block(dW, 0, 2, i), 1, 2, j), atol=ATOL)

    def test_table1_wire_volume(self):
        """fwd+bwd wire elements == 3(q-1)(S_X + S_W) exactly (Table 1)."""
        b, s, h = 4, 8, 16
        rt = SpmdRuntime(uniform_cluster(4))

        def prog(ctx):
            pc = pc_2d(ctx)
            i, j = pc.row_rank, pc.col_rank
            x = Tensor(SpecArray((b // 2, s, h // 2)), requires_grad=True)
            w = Tensor(SpecArray((h // 2, h // 2)), requires_grad=True)
            c = Summa2DMatMul.apply(
                x, w,
                pc.comm(ParallelMode.PARALLEL_2D_ROW),
                pc.comm(ParallelMode.PARALLEL_2D_COL),
            )
            c.sum().backward()

        rt.run(prog, materialize=False)
        total = 0
        for ranks in ([0, 1], [2, 3], [0, 2], [1, 3]):
            g = rt.group(tuple(ranks))
            total += g.counters.elements_total
        q = 2
        sx, sw = b * s * h, h * h
        assert total == 3 * (q - 1) * (sx + sw)


class TestLayerParity:
    def test_full_layer_parity(self):
        x_g = make_input()
        ref = serial_reference(x_g)
        q = 2

        def prog(ctx):
            pc = pc_2d(ctx)
            grid = ModeGrid(pc)
            layer = TransformerLayer(
                H, NH, mlp_ratio=RATIO, rng=np.random.default_rng(SEED), mode=grid
            )
            x = Tensor(grid.shard_activation(x_g.copy()), requires_grad=True)
            y = layer(x)
            y.sum().backward()
            return (
                pc.row_rank, pc.col_rank,
                y.numpy(), x.grad.numpy(),
                layer.mlp.dense_1.weight.grad.numpy(),
                layer.norm_1.gamma.grad.numpy(),
            )

        for i, j, out, xg, w1g, lng in run_spmd(4, prog):
            np.testing.assert_allclose(
                out, block(block(ref["out"], 0, q, i), 2, q, j), atol=ATOL
            )
            np.testing.assert_allclose(
                xg, block(block(ref["x_grad"], 0, q, i), 2, q, j), atol=ATOL
            )
            np.testing.assert_allclose(
                w1g, block(block(ref["mlp_w1_grad"], 0, q, i), 1, q, j), atol=ATOL
            )
            np.testing.assert_allclose(
                lng, block(ref["ln1_gamma_grad"], 0, q, j), atol=ATOL
            )

    def test_qkv_grad_parity(self):
        """The per-section QKV sharding must produce the serial grads."""
        x_g = make_input()
        ref = serial_reference(x_g)
        q = 2

        def prog(ctx):
            pc = pc_2d(ctx)
            grid = ModeGrid(pc)
            layer = TransformerLayer(
                H, NH, mlp_ratio=RATIO, rng=np.random.default_rng(SEED), mode=grid
            )
            x = Tensor(grid.shard_activation(x_g.copy()), requires_grad=True)
            layer(x).sum().backward()
            return pc.row_rank, pc.col_rank, layer.attention.qkv.weight.grad.numpy()

        full = ref["qkv_w_grad"]  # [H, 3H]
        sections = np.split(full, 3, axis=1)
        for i, j, wg in run_spmd(4, prog):
            expect = np.concatenate(
                [block(block(sec, 0, q, i), 1, q, j) for sec in sections], axis=1
            )
            np.testing.assert_allclose(wg, expect, atol=ATOL)

    def test_memory_sharded_four_ways(self):
        def prog(ctx):
            pc = pc_2d(ctx)
            layer = TransformerLayer(H, NH, mlp_ratio=RATIO, mode=ModeGrid(pc))
            return layer.num_parameters()

        serial_n = TransformerLayer(H, NH, mlp_ratio=RATIO).num_parameters()
        for n in run_spmd(4, prog):
            assert n < 0.35 * serial_n  # ~1/4 of weights (+small LN shards)

    def test_divisibility_validation(self):
        def prog(ctx):
            pc = pc_2d(ctx)
            Linear2D(7, 8, ModeGrid(pc))

        from repro.runtime import RemoteRankError

        with pytest.raises(RemoteRankError):
            run_spmd(4, prog)

    def test_layernorm2d_stats_match_serial(self):
        rng = np.random.default_rng(5)
        x_g = (rng.standard_normal((4, H)) * 3 + 1).astype(np.float32)

        def prog(ctx):
            pc = pc_2d(ctx)
            ln = LayerNorm2D(H, ModeGrid(pc), rng=np.random.default_rng(1))
            x = Tensor(block(block(x_g, 0, 2, pc.row_rank), 1, 2, pc.col_rank))
            return pc.row_rank, pc.col_rank, ln(x).numpy()

        mu = x_g.mean(-1, keepdims=True)
        sd = x_g.std(-1, keepdims=True)
        expect_full = (x_g - mu) / np.sqrt(sd**2 + 1e-5)
        for i, j, out in run_spmd(4, prog):
            np.testing.assert_allclose(
                out, block(block(expect_full, 0, 2, i), 1, 2, j), atol=1e-4
            )
