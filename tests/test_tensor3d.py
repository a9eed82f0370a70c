"""3D tensor parallelism: matmul correctness, layout alternation, parity."""

import numpy as np
import pytest

from repro.cluster import uniform_cluster
from repro.comm import SpecArray
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.nn import TransformerLayer
from repro.parallel.tensor3d import (
    LAYOUT_JK,
    LAYOUT_KJ,
    Linear3D,
    Matmul3D,
    Mode3D,
)
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor

from conftest import run_spmd
from parity_helpers import ATOL, B, H, NH, RATIO, SEED, block, make_input, serial_reference


def pc_3d(ctx):
    return ParallelContext(
        ctx, Config.from_dict(dict(parallel=dict(tensor=dict(size=8, mode="3d"))))
    )


class TestLinear3D:
    def test_linear_forward_backward_vs_serial(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 8)).astype(np.float32)
        l = 2

        def prog(ctx):
            pc = pc_3d(ctx)
            lin = Linear3D(8, 8, pc, LAYOUT_JK, rng=np.random.default_rng(1))
            x = Tensor(Mode3D(pc, LAYOUT_JK).shard_activation(X.copy()), requires_grad=True)
            y = lin(x)
            y.sum().backward()
            return pc.cube_i, pc.cube_j, pc.cube_k, y.numpy(), x.grad.numpy()

        from repro.nn import Linear
        from repro.nn import init as init_mod

        serial = Linear(8, 8, weight_init=init_mod.lecun_normal(), rng=np.random.default_rng(1))
        xs = Tensor(X.copy(), requires_grad=True)
        ys = serial(xs)
        ys.sum().backward()
        for i, j, k, out, xg in run_spmd(8, prog):
            # output layout = KJ: batch blocks (i, j), features by k
            bo = i * l + j
            np.testing.assert_allclose(
                out, block(block(ys.numpy(), 0, 4, bo), 1, l, k), atol=ATOL
            )
            # input grad layout = JK: batch (i, k), features by j
            bi = i * l + k
            np.testing.assert_allclose(
                xg, block(block(xs.grad.numpy(), 0, 4, bi), 1, l, j), atol=ATOL
            )

    def test_layout_flip_roundtrip(self):
        """Two chained linears return to the entry layout."""
        rng = np.random.default_rng(3)
        X = rng.standard_normal((8, 8)).astype(np.float32)
        l = 2

        def prog(ctx):
            pc = pc_3d(ctx)
            l1 = Linear3D(8, 8, pc, LAYOUT_JK, rng=np.random.default_rng(1))
            l2 = Linear3D(8, 8, pc, LAYOUT_KJ, rng=np.random.default_rng(2))
            x = Tensor(Mode3D(pc, LAYOUT_JK).shard_activation(X.copy()))
            y = l2(l1(x))
            return pc.cube_i, pc.cube_j, pc.cube_k, y.numpy()

        from repro.nn import Linear
        from repro.nn import init as init_mod

        s1 = Linear(8, 8, weight_init=init_mod.lecun_normal(), rng=np.random.default_rng(1))
        s2 = Linear(8, 8, weight_init=init_mod.lecun_normal(), rng=np.random.default_rng(2))
        expect = s2(s1(Tensor(X.copy()))).numpy()
        for i, j, k, out in run_spmd(8, prog):
            bi = i * l + k  # back to JK layout
            np.testing.assert_allclose(
                out, block(block(expect, 0, 4, bi), 1, l, j), atol=ATOL
            )

    def test_in_features_must_divide_l_squared(self):
        def prog(ctx):
            pc = pc_3d(ctx)
            Linear3D(6, 8, pc)  # 6 % 4 != 0

        from repro.runtime import RemoteRankError

        with pytest.raises(RemoteRankError):
            run_spmd(8, prog)

    def test_collective_pattern(self):
        """Forward = 2 allgathers + 1 reduce-scatter per linear; groups of
        size l only (the 3D scaling advantage)."""
        rt = SpmdRuntime(uniform_cluster(8))

        def prog(ctx):
            pc = pc_3d(ctx)
            lin = Linear3D(8, 8, pc, LAYOUT_JK, bias=False)
            # local activation: batch 8/l^2 = 2 rows, features 8/l = 4
            lin(Tensor(SpecArray((2, 4))))

        rt.run(prog, materialize=False)
        ag = rs = 0
        for key, grp in rt._groups.items():
            calls = grp.counters.calls_total
            if calls:
                assert len(key) == 2  # traffic only in axis groups of size l
            ag += grp.counters.by_op_calls.get("all_gather", 0)
            rs += grp.counters.by_op_calls.get("reduce_scatter", 0)
        # one AG of X per (i,j) pair + one AG of W per (j,k) pair = 8 groups;
        # one RS of C per (i,k) pair = 4 groups
        assert ag == 8
        assert rs == 4


class TestTransformer3DParity:
    def test_full_layer_parity(self):
        x_g = make_input()
        ref = serial_reference(x_g)
        l = 2

        def prog(ctx):
            pc = pc_3d(ctx)
            body = Mode3D(pc, LAYOUT_KJ)
            layer = TransformerLayer(
                H, NH, mlp_ratio=RATIO, rng=np.random.default_rng(SEED), mode=body
            )
            x = Tensor(body.shard_activation(x_g.copy()), requires_grad=True)
            y = layer(x)
            y.sum().backward()
            return (
                pc.cube_i, pc.cube_j, pc.cube_k,
                y.numpy(), x.grad.numpy(),
            )

        for i, j, k, out, xg in run_spmd(8, prog):
            # body layout KJ: batch (i, j), features k
            bi = i * l + j
            np.testing.assert_allclose(
                out, block(block(ref["out"], 0, 4, bi), 2, l, k), atol=ATOL
            )
            np.testing.assert_allclose(
                xg, block(block(ref["x_grad"], 0, 4, bi), 2, l, k), atol=ATOL
            )

    def test_memory_sharded_eight_ways(self):
        def prog(ctx):
            pc = pc_3d(ctx)
            layer = TransformerLayer(H, NH, mlp_ratio=RATIO, mode=Mode3D(pc, LAYOUT_JK))
            return layer.num_parameters()

        serial_n = TransformerLayer(H, NH, mlp_ratio=RATIO).num_parameters()
        for n in run_spmd(8, prog):
            assert n < 0.25 * serial_n
