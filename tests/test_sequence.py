"""Sequence parallelism: ring primitives, layer parity, memory scaling."""

import numpy as np
import pytest

from repro.cluster import uniform_cluster
from repro.comm import SpecArray
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.parallel.common import sync_parameter_gradients
from repro.nn import TransformerLayer
from repro.parallel.sequence import ModeSequence, RingAV, RingQK
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor

from conftest import run_spmd
from parity_helpers import ATOL, B, H, NH, RATIO, SEED, block, make_input, serial_reference


def pc_sp(ctx, size=4):
    return ParallelContext(
        ctx,
        Config.from_dict(dict(parallel=dict(tensor=dict(size=size, mode="sequence")))),
    )


class TestRingPrimitives:
    def _qk_setup(self, p=4, b=2, nh=2, s=8, d=3):
        rng = np.random.default_rng(0)
        Q = rng.standard_normal((b, nh, s, d)).astype(np.float32)
        K = rng.standard_normal((b, nh, s, d)).astype(np.float32)
        G = rng.standard_normal((b, nh, s, s)).astype(np.float32)
        return Q, K, G

    def test_ringqk_forward_backward(self):
        Q, K, G = self._qk_setup()
        p = 4

        def prog(ctx):
            pc = pc_sp(ctx)
            comm = pc.comm(ParallelMode.SEQUENCE)
            q = Tensor(block(Q, 2, p, comm.rank), requires_grad=True)
            k = Tensor(block(K, 2, p, comm.rank), requires_grad=True)
            s = RingQK.apply(q, k, comm)
            s.backward(Tensor(block(G, 2, p, comm.rank)))
            return comm.rank, s.numpy(), q.grad.numpy(), k.grad.numpy()

        S_full = Q @ np.swapaxes(K, -1, -2)
        dQ = G @ K
        dK = np.swapaxes(G, -1, -2) @ Q
        for r, s_loc, dq, dk in run_spmd(4, prog):
            np.testing.assert_allclose(s_loc, block(S_full, 2, p, r), atol=ATOL)
            np.testing.assert_allclose(dq, block(dQ, 2, p, r), atol=ATOL)
            np.testing.assert_allclose(dk, block(dK, 2, p, r), atol=ATOL)

    def test_ringav_forward_backward(self):
        rng = np.random.default_rng(1)
        p, b, nh, s, d = 4, 2, 2, 8, 3
        P = rng.standard_normal((b, nh, s, s)).astype(np.float32)
        V = rng.standard_normal((b, nh, s, d)).astype(np.float32)
        G = rng.standard_normal((b, nh, s, d)).astype(np.float32)

        def prog(ctx):
            pc = pc_sp(ctx)
            comm = pc.comm(ParallelMode.SEQUENCE)
            probs = Tensor(block(P, 2, p, comm.rank), requires_grad=True)
            v = Tensor(block(V, 2, p, comm.rank), requires_grad=True)
            out = RingAV.apply(probs, v, comm)
            out.backward(Tensor(block(G, 2, p, comm.rank)))
            return comm.rank, out.numpy(), probs.grad.numpy(), v.grad.numpy()

        O = P @ V
        dP = G @ np.swapaxes(V, -1, -2)
        dV = np.swapaxes(P, -1, -2) @ G
        for r, o, dp, dv in run_spmd(4, prog):
            np.testing.assert_allclose(o, block(O, 2, p, r), atol=ATOL)
            np.testing.assert_allclose(dp, block(dP, 2, p, r), atol=ATOL)
            np.testing.assert_allclose(dv, block(dV, 2, p, r), atol=ATOL)

    def test_ring_spec_mode_shapes(self):
        def prog(ctx):
            pc = pc_sp(ctx)
            comm = pc.comm(ParallelMode.SEQUENCE)
            q = Tensor(SpecArray((2, 2, 4, 3)), requires_grad=True)
            k = Tensor(SpecArray((2, 2, 4, 3)), requires_grad=True)
            s = RingQK.apply(q, k, comm)
            s.sum().backward()
            return s.shape, q.grad.shape, k.grad.shape

        for s, qg, kg in run_spmd(4, prog, materialize=False):
            assert s == (2, 2, 4, 16)
            assert qg == (2, 2, 4, 3) and kg == (2, 2, 4, 3)


class TestLayerParity:
    def test_transformer_layer_parity(self):
        # sequence length divisible by the 4-way sequence group
        x_g = np.random.default_rng(42).standard_normal((B, 8, H)).astype(np.float32)
        ref = serial_reference(x_g)
        p = 4

        def prog(ctx):
            pc = pc_sp(ctx)
            comm = pc.comm(ParallelMode.SEQUENCE)
            mode = ModeSequence(comm)
            layer = TransformerLayer(
                H, NH, mlp_ratio=RATIO, rng=np.random.default_rng(SEED), mode=mode
            )
            x = Tensor(mode.shard_activation(x_g.copy()), requires_grad=True)
            y = layer(x)
            y.sum().backward()
            sync_parameter_gradients(layer)
            return (
                comm.rank, y.numpy(), x.grad.numpy(),
                layer.attention.qkv.weight.grad.numpy(),
                layer.norm_1.gamma.grad.numpy(),
            )

        for r, out, xg, qkvg, lng in run_spmd(4, prog):
            np.testing.assert_allclose(out, block(ref["out"], 1, p, r), atol=ATOL)
            np.testing.assert_allclose(xg, block(ref["x_grad"], 1, p, r), atol=ATOL)
            np.testing.assert_allclose(qkvg, ref["qkv_w_grad"], atol=ATOL)
            np.testing.assert_allclose(lng, ref["ln1_gamma_grad"], atol=ATOL)

    def test_any_rank_count_works(self):
        """SP has no head-divisibility constraint (§5.3): run with 3 ranks
        where 1D TP (4 heads) could not."""
        x_g = make_input(seed=9)[:, :6, :]  # seq 6 divisible by 3
        ref_layer_in = x_g

        def prog(ctx):
            pc = pc_sp(ctx, size=3)
            comm = pc.comm(ParallelMode.SEQUENCE)
            mode = ModeSequence(comm)
            layer = TransformerLayer(
                H, NH, mlp_ratio=RATIO, rng=np.random.default_rng(SEED), mode=mode
            )
            x = Tensor(mode.shard_activation(ref_layer_in.copy()))
            return comm.rank, layer(x).numpy()

        serial = TransformerLayer(H, NH, mlp_ratio=RATIO, rng=np.random.default_rng(SEED))
        expect = serial(Tensor(ref_layer_in.copy())).numpy()
        for r, out in run_spmd(3, prog):
            np.testing.assert_allclose(out, block(expect, 1, 3, r), atol=ATOL)

    def test_score_memory_scales_with_ranks(self):
        """Peak activation memory per rank shrinks as the sequence group
        grows — the Fig 12 mechanism."""

        def peak_for(world):
            def prog(ctx):
                pc = pc_sp(ctx, size=world)
                comm = pc.comm(ParallelMode.SEQUENCE)
                layer = TransformerLayer(H, NH, mlp_ratio=RATIO, mode=ModeSequence(comm))
                x = Tensor(SpecArray((2, 32 // world, H)), requires_grad=True)
                layer(x).sum().backward()
                return ctx.device.memory.peak

            return run_spmd(world, prog, materialize=False)[0]

        p1 = peak_for(1)
        p4 = peak_for(4)
        assert p4 < 0.5 * p1
