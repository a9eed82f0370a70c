"""2.5D tensor parallelism: parity, depth handling, degeneration to 2D."""

import numpy as np
import pytest

from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.nn import TransformerLayer
from repro.parallel.common import sync_parameter_gradients
from repro.parallel.tensor2d import Linear2D, ModeGrid
from repro.tensor import Tensor

from conftest import run_spmd
from parity_helpers import ATOL, B, H, NH, RATIO, SEED, block, make_input, serial_reference


def pc_25d(ctx, size=8, depth=2):
    return ParallelContext(
        ctx,
        Config.from_dict(
            dict(parallel=dict(tensor=dict(size=size, mode="2.5d", depth=depth)))
        ),
    )


class TestLayerParity:
    def test_full_layer_parity_depth2(self):
        x_g = make_input()
        ref = serial_reference(x_g)
        d, q = 2, 2

        def prog(ctx):
            pc = pc_25d(ctx)
            grid = ModeGrid(pc)
            layer = TransformerLayer(
                H, NH, mlp_ratio=RATIO, rng=np.random.default_rng(SEED), mode=grid
            )
            x = Tensor(grid.shard_activation(x_g.copy()), requires_grad=True)
            y = layer(x)
            y.sum().backward()
            sync_parameter_gradients(layer)
            return (
                pc.dep_rank, pc.row_rank, pc.col_rank,
                y.numpy(), x.grad.numpy(),
                layer.mlp.dense_1.weight.grad.numpy(),
            )

        for dep, i, j, out, xg, w1g in run_spmd(8, prog):
            bi = dep * q + i  # batch block index (depth-major)
            np.testing.assert_allclose(
                out, block(block(ref["out"], 0, d * q, bi), 2, q, j), atol=ATOL
            )
            np.testing.assert_allclose(
                xg, block(block(ref["x_grad"], 0, d * q, bi), 2, q, j), atol=ATOL
            )
            # weight grads: identical across depth after sync, = serial shard
            np.testing.assert_allclose(
                w1g, block(block(ref["mlp_w1_grad"], 0, q, i), 1, q, j), atol=ATOL
            )

    def test_depth1_equals_2d(self):
        """depth=1 must behave exactly like 2D (the paper's degeneration)."""
        x_g = make_input()
        ref = serial_reference(x_g)

        def prog(ctx):
            pc = pc_25d(ctx, size=4, depth=1)
            grid = ModeGrid(pc)
            layer = TransformerLayer(
                H, NH, mlp_ratio=RATIO, rng=np.random.default_rng(SEED), mode=grid
            )
            x = Tensor(grid.shard_activation(x_g.copy()), requires_grad=True)
            y = layer(x)
            y.sum().backward()
            return pc.row_rank, pc.col_rank, y.numpy()

        for i, j, out in run_spmd(4, prog):
            np.testing.assert_allclose(
                out, block(block(ref["out"], 0, 2, i), 2, 2, j), atol=ATOL
            )

    def test_weight_grads_summed_over_depth(self):
        """Before the sync, depth layers hold partial (per-batch-shard)
        grads; after sync all hold the total."""

        def prog(ctx):
            pc = pc_25d(ctx)
            grid = ModeGrid(pc)
            lin = Linear2D(8, 8, grid, rng=np.random.default_rng(0))
            x_g = np.random.default_rng(1).standard_normal((8, 8)).astype(np.float32)
            x = Tensor(grid.shard_activation(x_g), requires_grad=True)
            lin(x).sum().backward()
            before = lin.weight.grad.numpy().copy()
            sync_parameter_gradients(lin)
            after = lin.weight.grad.numpy().copy()
            return pc.dep_rank, pc.row_rank, pc.col_rank, before, after

        res = run_spmd(8, prog)
        by_coord = {(d, i, j): (b, a) for d, i, j, b, a in res}
        b0, a0 = by_coord[(0, 0, 0)]
        b1, a1 = by_coord[(1, 0, 0)]
        assert not np.allclose(b0, b1)  # different batch shards
        np.testing.assert_allclose(a0, b0 + b1, atol=ATOL)
        np.testing.assert_allclose(a0, a1, atol=ATOL)

    def test_params_marked_for_depth_sync(self):
        def prog(ctx):
            pc = pc_25d(ctx)
            lin = Linear2D(8, 8, ModeGrid(pc))
            return all(
                len(getattr(p, "grad_sync_comms", [])) == 1 for p in lin.parameters()
            )

        assert all(run_spmd(8, prog))
