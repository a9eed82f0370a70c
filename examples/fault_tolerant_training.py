"""Fault-tolerant training: straggler + rank crash + checkpoint/resume.

Trains a small ViT with DP2 x TP2 in fp16 on 4 simulated GPUs while a seeded
``FaultPlan`` injects a straggler (rank 3 runs 3x slow) and then kills
rank 1 mid-run.  Every rank snapshots its state to a ``CheckpointManager``
every 2 steps; after the crash the supervisor resumes every rank from the
newest *consistent* checkpoint and training finishes with results bitwise
identical to a fault-free run: the same losses under the same warmup-cosine
learning-rate schedule, the same weights, and the same accuracy on a
held-out set.  A throughput hook records simulated samples per second per
epoch.

Run:  python examples/fault_tolerant_training.py
"""

import numpy as np

import repro
from repro.cluster import uniform_cluster
from repro.data import DataLoader, synthetic_image_classification
from repro.faults import FaultPlan
from repro.models import ViTConfig, build_vit
from repro.optim import AdamW, LinearWarmupCosine
from repro.parallel.data import shard_batch
from repro.runtime import SpmdRuntime
from repro.runtime.errors import RankFailure, RemoteRankError
from repro.trainer import (
    Accuracy,
    CheckpointManager,
    LossLoggingHook,
    LRSchedulerHook,
    ThroughputHook,
    Trainer,
)

WORLD = 4
EPOCHS = 3
CRASH_STEP = 5
config = dict(parallel=dict(tensor=dict(size=2, mode="1d")),  # dp2 x tp2
              fp16=dict(enabled=True),  # the loss scale is checkpointed too
              gradient_clipping=1.0)

vit_cfg = ViTConfig(
    image_size=8, patch_size=4, in_channels=2,
    hidden_size=16, n_layers=1, n_heads=2, n_classes=3, mlp_ratio=1, seed=5,
)


def build_training(pc, manager):
    """Per-rank model/engine/trainer/loader — rebuilt after a crash, the
    way a restarted job re-executes its setup code."""
    images, labels = synthetic_image_classification(
        48, image_size=8, channels=2, n_classes=3, noise=0.3, seed=1
    )
    bundle = build_vit(vit_cfg, pc, mode="1d")
    optimizer = AdamW(bundle.model.parameters(), lr=3e-3, weight_decay=0.0)
    engine = repro.initialize(bundle.model, optimizer, criterion=None, pc=pc)
    loader = DataLoader(images, labels, batch_size=16, seed=0)
    schedule = LinearWarmupCosine(optimizer, base_lr=3e-3, warmup_steps=2,
                                  total_steps=EPOCHS * len(loader))
    trainer = Trainer(
        engine,
        hooks=[LossLoggingHook(every=1), LRSchedulerHook(schedule),
               ThroughputHook(samples_per_step=16)],
        shard_input=lambda x: shard_batch(np.asarray(x), pc),
        loss_fn=lambda out, y: bundle.loss_fn(out, shard_batch(np.asarray(y), pc)),
        checkpoint=manager,
        checkpoint_every=2,
    )
    return bundle, trainer, loader


def held_out_accuracy(trainer, pc):
    """Top-1 accuracy of the trained model on 32 samples of the training
    classes it never saw; each data rank scores its own half of a batch."""
    images, labels = synthetic_image_classification(
        80, image_size=8, channels=2, n_classes=3, noise=0.3, seed=1
    )
    metric = Accuracy()
    trainer.evaluate(
        DataLoader(images[48:], labels[48:], batch_size=16, shuffle=False),
        lambda out, y: metric.update(out, shard_batch(np.asarray(y), pc)),
    )
    return metric.value


if __name__ == "__main__":
    # fault-free reference run
    def reference(ctx, pc):
        bundle, trainer, loader = build_training(pc, manager=None)
        hist = trainer.fit(loader, epochs=EPOCHS)
        return (hist["loss"], bundle.model.state_dict(), held_out_accuracy(trainer, pc),
                hist["throughput"])

    ref = repro.launch(config, uniform_cluster(WORLD), reference, world_size=WORLD)
    print(f"reference run: {len(ref[0][0])} steps, "
          f"loss {ref[0][0][0]:.3f} -> {ref[0][0][-1]:.3f}, "
          f"held-out accuracy {ref[0][2]:.1%}, "
          f"{ref[0][3][-1]:.0f} samples/s in the last epoch")

    # chaos run: rank 3 is a straggler, rank 1 dies at step 5
    plan = (FaultPlan(seed=42)
            .straggler(rank=3, factor=3.0)
            .crash(rank=1, at_step=CRASH_STEP))
    runtime = SpmdRuntime(uniform_cluster(WORLD), fault_plan=plan)
    manager = CheckpointManager()

    def faulted(ctx, pc):
        bundle, trainer, loader = build_training(pc, manager)
        trainer.fit(loader, epochs=EPOCHS)
        return "finished"

    try:
        repro.launch(config, uniform_cluster(WORLD), faulted,
                     world_size=WORLD, runtime=runtime)
        raise SystemExit("expected the injected crash to abort the run")
    except RemoteRankError as err:
        assert isinstance(err.__cause__, RankFailure)
        print(f"crash detected: {err.__cause__}")

    step = manager.latest_common_step(WORLD)
    print(f"checkpointed steps per rank: "
          f"{[manager.steps(rank) for rank in range(WORLD)]}")
    print(f"resuming every rank from consistent checkpoint at step {step}")

    def resumed(ctx, pc):
        bundle, trainer, loader = build_training(pc, manager)
        manager.load(ctx.rank, step).restore(trainer, loader)
        hist = trainer.fit(loader, epochs=EPOCHS)
        return (hist["loss"], bundle.model.state_dict(), held_out_accuracy(trainer, pc),
                hist["throughput"])

    # same runtime: the crashed "node" was replaced, the straggler persists
    res = repro.launch(config, uniform_cluster(WORLD), resumed,
                       world_size=WORLD, runtime=runtime)

    for rank in range(WORLD):
        assert res[rank][0] == ref[rank][0], "loss trajectories diverged"
        for k, v in ref[rank][1].items():
            assert v.tobytes() == res[rank][1][k].tobytes(), f"{k} diverged"
        assert res[rank][2] == ref[rank][2], "held-out accuracy diverged"
    print(f"loss after resume: {res[0][0][-1]:.3f} "
          f"(matches reference {ref[0][0][-1]:.3f}), "
          f"held-out accuracy {res[0][2]:.1%}, "
          f"{res[0][3][-1]:.0f} samples/s in the last epoch")
    manager.clear()  # the job finished: its checkpoints are no longer needed
    assert manager.latest_common_step(WORLD) is None
    print("resumed run is bitwise identical to the fault-free run. OK")
