"""Cross-module integration tests: compositions of features the paper
advertises as freely combinable (§4 modularity)."""

import numpy as np
import pytest

import repro
from repro.autograd import checkpoint, ops
from repro.cluster import uniform_cluster
from repro.comm import Communicator, SpecArray
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.models import ViTConfig, build_vit
from repro.nn import CrossEntropyLoss, TransformerLayer
from repro.optim import AdamW, SGD
from repro.parallel.tensor1d import ParallelTransformerLayer1D
from repro.parallel import tensor_mode
from repro.tensor import Tensor

from conftest import run_spmd
from parity_helpers import ATOL, B, H, NH, RATIO, SEED, block, make_input, serial_reference


class TestCheckpointWithTensorParallel:
    """Activation checkpointing must compose with every TP mode: the
    recompute re-executes the collectives, so gradients stay exact."""

    def test_1d_checkpointed_parity(self):
        x_g = make_input()
        ref = serial_reference(x_g)

        def prog(ctx):
            pc = ParallelContext(
                ctx, Config.from_dict(dict(parallel=dict(tensor=dict(size=4, mode="1d"))))
            )
            layer = ParallelTransformerLayer1D(
                H, NH, pc.comm(ParallelMode.TENSOR), mlp_ratio=RATIO,
                rng=np.random.default_rng(SEED),
            )
            x = Tensor(x_g.copy(), requires_grad=True)
            y = checkpoint(layer, x)
            y.sum().backward()
            return y.numpy(), x.grad.numpy()

        for out, xg in run_spmd(4, prog):
            np.testing.assert_allclose(out, ref["out"], atol=ATOL)
            np.testing.assert_allclose(xg, ref["x_grad"], atol=ATOL)

    def test_2d_checkpointed_parity(self):
        x_g = make_input()
        ref = serial_reference(x_g)
        q = 2

        def prog(ctx):
            pc = ParallelContext(
                ctx, Config.from_dict(dict(parallel=dict(tensor=dict(size=4, mode="2d"))))
            )
            mode = tensor_mode(pc)
            layer = TransformerLayer(
                H, NH, mlp_ratio=RATIO, rng=np.random.default_rng(SEED), mode=mode
            )
            x = Tensor(mode.shard_activation(x_g.copy()), requires_grad=True)
            y = checkpoint(layer, x)
            y.sum().backward()
            return pc.row_rank, pc.col_rank, y.numpy(), x.grad.numpy()

        for i, j, out, xg in run_spmd(4, prog):
            np.testing.assert_allclose(
                out, block(block(ref["out"], 0, q, i), 2, q, j), atol=ATOL
            )
            np.testing.assert_allclose(
                xg, block(block(ref["x_grad"], 0, q, i), 2, q, j), atol=ATOL
            )

    def test_checkpoint_saves_memory_under_tp(self):
        def peak(use_ckpt):
            def prog(ctx):
                pc = ParallelContext(
                    ctx,
                    Config.from_dict(dict(parallel=dict(tensor=dict(size=4, mode="1d")))),
                )
                layers = [
                    ParallelTransformerLayer1D(
                        64, 4, pc.comm(ParallelMode.TENSOR), mlp_ratio=4
                    )
                    for _ in range(4)
                ]
                x = Tensor(SpecArray((8, 32, 64)), requires_grad=True)
                h = x
                for l in layers:
                    h = checkpoint(l, h) if use_ckpt else l(h)
                h.sum().backward()
                return ctx.device.memory.peak

            return run_spmd(4, prog, materialize=False)[0]

        assert peak(True) < peak(False)


class TestDPxTP:
    """Data parallelism wrapped around tensor parallelism: 8 ranks =
    dp2 x tp4, gradients must equal serial full-batch training."""

    def test_hybrid_grads_match_serial(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 6, H)).astype(np.float32)

        from repro.nn import TransformerLayer

        serial = TransformerLayer(H, NH, mlp_ratio=RATIO, rng=np.random.default_rng(SEED))
        xs = Tensor(X.copy(), requires_grad=True)
        # serial "mean over batch" objective
        serial(xs).mean().backward()
        ref_grad = serial.mlp.dense_1.weight.grad.numpy()

        def prog(ctx):
            pc = ParallelContext(
                ctx, Config.from_dict(dict(parallel=dict(tensor=dict(size=4, mode="1d"))))
            )
            layer = ParallelTransformerLayer1D(
                H, NH, pc.comm(ParallelMode.TENSOR), mlp_ratio=RATIO,
                rng=np.random.default_rng(SEED),
            )
            from repro.parallel.data import shard_batch, sync_gradients

            xl = shard_batch(X, pc)  # dp=2: each replica gets 4 rows
            x = Tensor(xl.copy(), requires_grad=True)
            out = layer(x)
            # local mean * (local share) -> average handled by DP mean-sync
            out.mean().backward()
            sync_gradients(layer.parameters(), pc.comm(ParallelMode.DATA))
            return layer.mlp.dense_1.weight.grad.numpy(), pc.tp_rank

        for g, tp_rank in run_spmd(8, prog):
            expect = block(ref_grad, 1, 4, tp_rank)
            np.testing.assert_allclose(g, expect, atol=1e-5)


class TestFP16xTensorParallel:
    def test_fp16_2d_vit_trains(self):
        cfg = ViTConfig(
            image_size=8, patch_size=2, in_channels=3, hidden_size=16,
            n_layers=1, n_heads=4, n_classes=4, mlp_ratio=2, seed=2,
        )
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 8, 8, 3)).astype(np.float32)
        Y = rng.integers(0, 4, 4)

        def prog(ctx, pc):
            bundle = build_vit(cfg, pc, mode="2d")
            engine = repro.initialize(
                bundle.model,
                AdamW(bundle.model.parameters(), lr=1e-3, weight_decay=0.0),
                None, pc=pc,
                config=Config.from_dict(
                    dict(parallel=dict(tensor=dict(size=4, mode="2d")),
                         fp16=dict(enabled=True))
                ),
            )
            losses = []
            for _ in range(3):
                engine.zero_grad()
                x = Tensor(bundle.shard_input(X.copy()))
                out = engine(x)
                loss = bundle.loss_fn(out, bundle.shard_target(Y))
                engine.backward(loss)
                engine.step()
                losses.append(loss.item())
            dtypes = {p.dtype.name for p in bundle.model.parameters()}
            return losses, dtypes

        cfg_d = dict(parallel=dict(tensor=dict(size=4, mode="2d")), fp16=dict(enabled=True))
        res = repro.launch(cfg_d, uniform_cluster(4), prog, world_size=4)
        losses, dtypes = res[0]
        assert dtypes == {"float16"}
        assert losses[-1] < losses[0]
        # all ranks observe the same loss trajectory
        other_losses = res[1][0]
        assert all(abs(a - b) < 1e-3 for a, b in zip(losses, other_losses))


class TestSpecModeEndToEnd:
    def test_full_vit_bundle_spec(self):
        """Every mode's full ViT bundle runs fwd+bwd in spec mode (the path
        the big throughput benches rely on)."""
        cfg = ViTConfig(
            image_size=8, patch_size=2, in_channels=3, hidden_size=16,
            n_layers=2, n_heads=4, n_classes=4, mlp_ratio=2,
        )

        for mode, world, cdict in [
            ("1d", 4, dict(parallel=dict(tensor=dict(size=4, mode="1d")))),
            ("2d", 4, dict(parallel=dict(tensor=dict(size=4, mode="2d")))),
            ("3d", 8, dict(parallel=dict(tensor=dict(size=8, mode="3d")))),
        ]:
            def prog(ctx, pc):
                bundle = build_vit(cfg, pc, mode=mode)
                x = bundle.shard_input(SpecArray((8, 8, 8, 3), "float32"))
                out = bundle.model(Tensor(x) if not isinstance(x, Tensor) else x)
                loss = bundle.loss_fn(out, bundle.shard_target(SpecArray((8,), "int64")))
                loss.backward()
                return ctx.device.memory.peak > 0 and ctx.clock.time > 0

            assert all(
                repro.launch(cdict, uniform_cluster(world), prog,
                             world_size=world, materialize=False)
            ), mode


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        """Whole-training determinism: two SPMD runs produce byte-identical
        weights (collective order + seeded init + deterministic reduction)."""

        def train(ctx, pc):
            bundle = build_vit(
                ViTConfig(image_size=8, patch_size=2, in_channels=3,
                          hidden_size=16, n_layers=1, n_heads=4, n_classes=4,
                          mlp_ratio=2),
                pc, mode="2d",
            )
            opt = SGD(bundle.model.parameters(), lr=0.1)
            rng = np.random.default_rng(1)
            for _ in range(2):
                X = rng.standard_normal((4, 8, 8, 3)).astype(np.float32)
                Y = rng.integers(0, 4, 4)
                out = bundle.model(Tensor(bundle.shard_input(X)))
                loss = bundle.loss_fn(out, bundle.shard_target(Y))
                loss.backward()
                opt.step()
                opt.zero_grad()
            return bundle.model.state_dict()["head.weight"].tobytes()

        cdict = dict(parallel=dict(tensor=dict(size=4, mode="2d")))
        a = repro.launch(cdict, uniform_cluster(4), train, world_size=4)
        b = repro.launch(cdict, uniform_cluster(4), train, world_size=4)
        assert a == b
