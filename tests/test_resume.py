"""Checkpoint / kill / resume: a DP+TP training run that loses a rank must
restart from the last consistent snapshot and converge to bitwise-identical
results vs. an uninterrupted run."""

import numpy as np
import pytest

import repro
from repro.cluster import uniform_cluster
from repro.data import DataLoader, synthetic_image_classification
from repro.faults import FaultPlan
from repro.models import ViTConfig, build_vit
from repro.optim import AdamW
from repro.parallel.data import shard_batch
from repro.runtime import SpmdRuntime
from repro.runtime.errors import RankFailure, RemoteRankError
from repro.trainer import CheckpointManager, LossLoggingHook, Trainer

pytestmark = pytest.mark.chaos

WORLD = 4
CDICT = dict(parallel=dict(tensor=dict(size=2, mode="1d")))  # dp2 x tp2
VIT = ViTConfig(
    image_size=8, patch_size=4, in_channels=2, hidden_size=16,
    n_layers=1, n_heads=2, n_classes=3, mlp_ratio=1, seed=5,
)
EPOCHS = 3  # 48 samples / batch 16 = 3 steps per epoch, 9 total
#: overflows float32 on the first steps, backs off, regrows after two finite
#: steps: the scaler is mid-schedule at every checkpoint
FP16 = dict(CDICT, fp16=dict(enabled=True, initial_scale=2.0**129,
                             growth_interval=2))


def _make_parts(pc):
    X, Y = synthetic_image_classification(
        48, image_size=8, channels=2, n_classes=3, noise=0.3, seed=1
    )
    bundle = build_vit(VIT, pc, mode="1d")
    engine = repro.initialize(
        bundle.model,
        AdamW(bundle.model.parameters(), lr=3e-3, weight_decay=0.0),
        None, pc=pc,
    )
    shard_in = lambda x: shard_batch(np.asarray(x), pc)
    loss_fn = lambda out, y: bundle.loss_fn(out, shard_batch(np.asarray(y), pc))
    loader = DataLoader(X, Y, batch_size=16, seed=0)
    return bundle, engine, shard_in, loss_fn, loader


def _make_trainer(pc, manager=None, every=0):
    bundle, engine, shard_in, loss_fn, loader = _make_parts(pc)
    trainer = Trainer(
        engine, hooks=[LossLoggingHook(every=1)],
        shard_input=shard_in, loss_fn=loss_fn,
        checkpoint=manager, checkpoint_every=every,
    )
    return bundle, trainer, loader


def _weights(bundle):
    return {k: v.tobytes() for k, v in bundle.model.state_dict().items()}


def _scaler(trainer):
    s = trainer.engine.scaler
    return s and (s.scale, s._good_steps, s.overflows)


def _baseline(cdict=CDICT):
    def prog(ctx, pc):
        bundle, trainer, loader = _make_trainer(pc)
        hist = trainer.fit(loader, epochs=EPOCHS)
        return hist["loss"], _weights(bundle), _scaler(trainer)

    return repro.launch(cdict, uniform_cluster(WORLD), prog, world_size=WORLD)


def _crash_then_resume(crash_step, seed, checkpoint_every=2, cdict=CDICT):
    """Run DP+TP training that loses a rank at ``crash_step``, then resume
    from the newest consistent checkpoint.  Returns per-rank
    (loss history, final weights, loss-scaler state)."""
    manager = CheckpointManager()

    def faulted(ctx, pc):
        bundle, trainer, loader = _make_trainer(pc, manager, checkpoint_every)
        trainer.fit(loader, epochs=EPOCHS)
        return "finished"  # pragma: no cover - the crash precedes this

    plan = FaultPlan(seed=seed).crash(rank=1, at_step=crash_step)
    rt = SpmdRuntime(uniform_cluster(WORLD), fault_plan=plan)
    with pytest.raises(RemoteRankError) as ei:
        repro.launch(cdict, uniform_cluster(WORLD), faulted,
                     world_size=WORLD, runtime=rt)
    assert isinstance(ei.value.__cause__, RankFailure)
    assert ei.value.__cause__.rank == 1
    assert ei.value.__cause__.step == crash_step

    step = manager.latest_common_step(WORLD)
    if crash_step <= checkpoint_every:
        # crash before the first snapshot: cold restart from step 0
        assert step is None

    def resumed(ctx, pc):
        bundle, trainer, loader = _make_trainer(pc, manager, checkpoint_every)
        if step is not None:
            manager.load(ctx.rank, step).restore(trainer, loader)
        hist = trainer.fit(loader, epochs=EPOCHS)
        return hist["loss"], _weights(bundle), _scaler(trainer)

    # same runtime: the crash event already fired (the failed node was
    # replaced), so the program runs to completion this time
    return repro.launch(cdict, uniform_cluster(WORLD), resumed,
                        world_size=WORLD, runtime=rt)


class TestCrashResume:
    def test_mid_epoch_crash_resumes_bitwise(self, fault_seed):
        base = _baseline()
        res = _crash_then_resume(crash_step=5, seed=fault_seed)
        for r in range(WORLD):
            assert res[r][0] == base[r][0]  # full loss trajectory
            assert res[r][1] == base[r][1]  # every weight, bitwise

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # it overflows on purpose
    def test_fp16_loss_scale_resumes_mid_schedule(self, fault_seed):
        base = _baseline(FP16)
        res = _crash_then_resume(crash_step=5, seed=fault_seed, cdict=FP16)
        assert base[0][2][2] >= 2 and res == base  # backed off; losses, weights, scaler equal

    def test_epoch_boundary_crash_resumes_bitwise(self, fault_seed):
        """Checkpoint at step 6 = end of epoch 2: the resume path must take
        the epoch-boundary branch (no batch replay)."""
        base = _baseline()
        res = _crash_then_resume(crash_step=7, seed=fault_seed,
                                 checkpoint_every=3)
        for r in range(WORLD):
            assert res[r][0] == base[r][0]
            assert res[r][1] == base[r][1]

    def test_any_crash_step_resumes_bitwise(self, fault_seed):
        """Property: whatever step the rank dies at — including before the
        first checkpoint — the resumed run is bitwise identical."""
        base = _baseline()
        rng = np.random.default_rng(fault_seed)
        total_steps = EPOCHS * 3
        for crash_step in rng.choice(np.arange(1, total_steps + 1), size=3,
                                     replace=False):
            res = _crash_then_resume(crash_step=int(crash_step), seed=fault_seed)
            for r in range(WORLD):
                assert res[r][0] == base[r][0], f"crash_step={crash_step}"
                assert res[r][1] == base[r][1], f"crash_step={crash_step}"


class TestCheckpointManager:
    def test_latest_common_step_requires_all_ranks(self):
        from repro.trainer.checkpoint import Checkpoint

        mgr = CheckpointManager()
        ck = Checkpoint(step=2, epoch=1, steps_into_epoch=2, model_state={},
                        optim_state=None, engine_state={}, loader_state=None,
                        loader_state_end=None)
        mgr.save(0, ck)
        assert mgr.latest_common_step(2) is None  # rank 1 has nothing
        mgr.save(1, ck)
        assert mgr.latest_common_step(2) == 2
        assert mgr.steps(0) == [2]
        mgr.clear()
        assert mgr.latest_common_step(2) is None

    def test_load_missing_raises(self):
        mgr = CheckpointManager()
        with pytest.raises(KeyError):
            mgr.load(0, 1)
