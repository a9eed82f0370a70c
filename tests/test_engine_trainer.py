"""Engine (Listing 1 API) and Trainer with hooks."""

import numpy as np
import pytest

from repro.cluster import uniform_cluster
from repro.config import Config
from repro.data import DataLoader, synthetic_image_classification
from repro.engine import initialize, launch
from repro.models import ViTConfig, build_vit
from repro.nn import CrossEntropyLoss, Linear
from repro.optim import Adam, AdamW, SGD
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor
from repro.trainer import (
    Accuracy,
    AverageMeter,
    LossLoggingHook,
    ThroughputHook,
    Trainer,
)

from conftest import run_spmd


class TestEngineAPI:
    def test_listing1_loop(self):
        """The exact usage pattern from the paper's Listing 1."""
        rng = np.random.default_rng(0)
        X = rng.standard_normal((16, 8)).astype(np.float32)
        Y = rng.integers(0, 3, 16)

        def prog(ctx, pc):
            model = Linear(8, 3, rng=np.random.default_rng(1))
            engine = initialize(
                model, Adam(model.parameters(), lr=1e-2), CrossEntropyLoss(), pc=pc
            )
            losses = []
            for _ in range(3):
                engine.zero_grad()
                output = engine(Tensor(X.copy()))
                loss = engine.criterion(output, Y)
                engine.backward(loss)
                engine.step()
                losses.append(loss.item())
            return losses

        losses = launch({}, uniform_cluster(1), prog)[0]
        assert losses[-1] < losses[0]  # it learns

    def test_fp16_overflow_skips_step(self):
        def prog(ctx, pc):
            model = Linear(4, 2, rng=np.random.default_rng(0))
            engine = initialize(
                model, SGD(model.parameters(), lr=0.1), CrossEntropyLoss(),
                pc=pc, config=Config.from_dict(dict(fp16=dict(enabled=True))),
            )
            w_before = model.weight.numpy().copy()
            # force an overflow by injecting inf grads
            model.weight.grad = Tensor(np.full(model.weight.shape, np.inf, dtype=np.float32))
            model.bias.grad = Tensor(np.zeros(model.bias.shape, dtype=np.float32))
            ok = engine.step()
            return ok, engine.steps_skipped, np.allclose(model.weight.numpy(), w_before)

        ok, skipped, unchanged = launch({}, uniform_cluster(1), prog)[0]
        assert not ok and skipped == 1 and unchanged

    @pytest.mark.parametrize("parallel", [{}, dict(tensor=dict(size=2, mode="1d"))],
                             ids=["dp2", "tp2"])
    def test_fp16_overflow_on_one_rank_skips_the_step_on_every_rank(self, parallel):
        """Rank 0 alone overflows at step 0: every rank skips that step and
        backs its scale off, so no gradient collective is left unpaired (a
        hang under data parallelism) and no rank's weights drift."""
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 4)).astype(np.float16)
        Y = rng.integers(0, 2, 4)

        def prog(ctx, pc):
            model = Linear(4, 2, rng=np.random.default_rng(1))
            engine = initialize(model, SGD(model.parameters(), lr=0.1),
                                CrossEntropyLoss(), pc=pc)
            oks = []
            for step in range(2):
                engine.zero_grad()
                engine.backward(engine.criterion(engine(Tensor(X.copy())), Y))
                if step == 0 and ctx.rank == 0:
                    model.weight.grad.payload[...] = np.inf
                oks.append(engine.step())
            return oks, engine.steps_skipped, engine.scaler.scale, model.weight.numpy()

        rt = SpmdRuntime(uniform_cluster(2))
        cfg = dict(parallel=parallel, fp16=dict(enabled=True, initial_scale=8.0))
        (oks0, skipped0, scale0, w0), (oks1, skipped1, scale1, w1) = launch(
            cfg, uniform_cluster(2), prog, runtime=rt)
        assert oks0 == oks1 == [False, True] and skipped0 == skipped1 == 1
        assert scale0 == scale1 == 4.0
        np.testing.assert_array_equal(w0, w1)

    def test_fp16_casts_model(self):
        def prog(ctx, pc):
            model = Linear(4, 2)
            initialize(
                model, SGD(model.parameters(), lr=0.1), None,
                pc=pc, config=Config.from_dict(dict(fp16=dict(enabled=True))),
            )
            return model.weight.dtype == np.float16

        assert launch({}, uniform_cluster(1), prog)[0]

    def test_gradient_clipping_applied(self):
        def prog(ctx, pc):
            model = Linear(4, 2, rng=np.random.default_rng(0))
            engine = initialize(
                model, SGD(model.parameters(), lr=0.0), None, pc=pc,
                config=Config.from_dict(dict(gradient_clipping=1.0)),
            )
            model.weight.grad = Tensor(np.full((4, 2), 10.0, dtype=np.float32))
            model.bias.grad = Tensor(np.zeros(2, dtype=np.float32))
            engine.step()
            return float(np.linalg.norm(model.weight.grad.numpy()))

        assert launch({}, uniform_cluster(1), prog)[0] == pytest.approx(1.0, rel=1e-3)

    def test_pipeline_engine_auto_schedule(self):
        def prog(ctx, pc):
            engine = initialize(
                Linear(4, 4), SGD([p for p in Linear(4, 4).parameters()], lr=0.1),
                CrossEntropyLoss(), pc=pc,
            )
            return engine.schedule is not None

        cfg = dict(parallel=dict(pipeline=2), num_microbatches=2)
        assert all(launch(cfg, uniform_cluster(2), prog))

    def test_ddp_grad_sync_in_step(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 4)).astype(np.float32)
        Y = rng.integers(0, 2, 8)

        # serial full-batch single step
        model_s = Linear(4, 2, rng=np.random.default_rng(1))
        crit = CrossEntropyLoss()
        loss = crit(model_s(Tensor(X.copy())), Y)
        loss.backward()
        opt_s = SGD(model_s.parameters(), lr=0.1)
        opt_s.step()
        ref_w = model_s.weight.numpy().copy()

        def prog(ctx, pc):
            from repro.parallel.data import shard_batch

            model = Linear(4, 2, rng=np.random.default_rng(1))
            engine = initialize(model, SGD(model.parameters(), lr=0.1), crit, pc=pc)
            xl, yl = shard_batch(X, pc), shard_batch(Y, pc)
            engine.zero_grad()
            out = engine(Tensor(xl.copy()))
            engine.backward(engine.criterion(out, yl))
            engine.step()
            return model.weight.numpy()

        for w in launch({}, uniform_cluster(4), prog):
            np.testing.assert_allclose(w, ref_w, atol=1e-5)


class TestTrainer:
    def _fit(self, ctx, pc, epochs=2):
        cfg = ViTConfig(
            image_size=8, patch_size=4, in_channels=2, hidden_size=16,
            n_layers=1, n_heads=2, n_classes=3, mlp_ratio=1, seed=5,
        )
        X, Y = synthetic_image_classification(
            48, image_size=8, channels=2, n_classes=3, noise=0.3, seed=1
        )
        bundle = build_vit(cfg, pc, mode="serial")
        engine = initialize(
            bundle.model, AdamW(bundle.model.parameters(), lr=3e-3, weight_decay=0.0),
            CrossEntropyLoss(), pc=pc,
        )
        hooks = [
            LossLoggingHook(every=1),
            ThroughputHook(samples_per_step=16),
        ]
        trainer = Trainer(engine, hooks=hooks)
        loader = DataLoader(X, Y, batch_size=16, seed=0)
        history = trainer.fit(loader, epochs=epochs)
        return history, trainer

    def test_fit_improves_accuracy(self):
        """Top-1 accuracy on the training set, after one epoch and after four."""
        def prog(ctx, pc, epochs):
            history, trainer = self._fit(ctx, pc, epochs=epochs)
            X, Y = synthetic_image_classification(
                48, image_size=8, channels=2, n_classes=3, noise=0.3, seed=1
            )
            metric = Accuracy()
            trainer.evaluate(DataLoader(X, Y, batch_size=16, shuffle=False), metric.update)
            return history, metric.value

        (_, first), = launch({}, uniform_cluster(1), lambda ctx, pc: prog(ctx, pc, 1))
        (history, last), = launch({}, uniform_cluster(1), lambda ctx, pc: prog(ctx, pc, 4))
        assert last > first
        assert len(history["throughput"]) == 4
        assert all(t > 0 for t in history["throughput"])

    def test_loss_history_recorded(self):
        def prog(ctx, pc):
            history, trainer = self._fit(ctx, pc, epochs=1)
            return list(history), trainer.step

        keys, steps = launch({}, uniform_cluster(1), prog)[0]
        assert "loss" in keys and steps == 3  # 48/16 per epoch

    def test_evaluate(self):
        def prog(ctx, pc):
            _, trainer = self._fit(ctx, pc, epochs=2)
            X, Y = synthetic_image_classification(
                32, image_size=8, channels=2, n_classes=3, noise=0.3, seed=2
            )
            metric = Accuracy()
            trainer.evaluate(
                DataLoader(X, Y, batch_size=16, shuffle=False),
                lambda out, y: metric.update(out, y),
            )
            return metric.value

        acc = launch({}, uniform_cluster(1), prog)[0]
        assert 0.0 <= acc <= 1.0


class TestMetrics:
    def test_average_meter(self):
        m = AverageMeter()
        m.update(2.0, n=2)
        m.update(5.0)
        assert m.avg == pytest.approx(3.0)
        m.reset()
        assert m.avg == 0.0

    def test_accuracy_metric(self):
        a = Accuracy()
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        a.update(logits, np.array([0, 1, 1]))
        assert a.value == pytest.approx(2 / 3)
