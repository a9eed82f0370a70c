"""Quickstart: the paper's Listing 1 workflow on a simulated cluster.

Trains a small ViT on 8 simulated A100s: two data-parallel replicas of a
2D tensor-parallel group of 4, with fp16 storage under dynamic loss
scaling, ZeRO-2 sharding the Adam state over the replicas and the global
gradient norm clipped to 1, using the
``config -> launch -> initialize -> engine loop`` API.  A warmup-cosine
schedule sets the learning rate every step.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro
from repro.cluster import system_i
from repro.data import DataLoader, synthetic_image_classification
from repro.models import ViTConfig, build_vit
from repro.optim import AdamW, LinearWarmupCosine
from repro.tensor import Tensor

EPOCHS = 3

# 1. describe the parallelization declaratively (Listing 1); data
# parallelism takes the ranks the tensor group leaves
config = dict(
    parallel=dict(tensor=dict(size=4, mode="2d")),
    fp16=dict(enabled=True),
    zero=dict(stage=2),
    gradient_clipping=1.0,
    seed=0,
)

vit_cfg = ViTConfig(
    image_size=16, patch_size=4, in_channels=3,
    hidden_size=32, n_layers=2, n_heads=4, n_classes=4, mlp_ratio=2,
)


def train(ctx, pc):
    # 2. build the parallel model + optimizer for this rank; initialize
    # casts the model to fp16 and swaps the Adam for its ZeRO-2 shard
    bundle = build_vit(vit_cfg, pc)
    engine = repro.initialize(
        bundle.model,
        AdamW(bundle.model.parameters(), lr=3e-3, weight_decay=0.0),
        criterion=None,  # loss comes from the mode-aware bundle
        pc=pc,
    )

    images, labels = synthetic_image_classification(
        256, image_size=16, channels=3, n_classes=4, noise=0.4, seed=1
    )
    loader = DataLoader(images, labels, batch_size=32, seed=0)
    schedule = LinearWarmupCosine(engine.optimizer, base_lr=3e-3, warmup_steps=4,
                                  total_steps=EPOCHS * len(loader))

    # 3. the Listing-1 training loop
    losses = []
    for epoch in range(EPOCHS):
        for data, label in loader:
            engine.zero_grad()
            output = engine(Tensor(bundle.shard_input(data)))
            loss = bundle.loss_fn(output, bundle.shard_target(label))
            engine.backward(loss)
            engine.step()
            schedule.step()
            losses.append(loss.item())
    # this rank's parameter count and its device bytes by tag: the fp32
    # Adam state is sharded over the two data-parallel replicas
    memory = ctx.device.memory.breakdown()
    return (losses, ctx.clock.time, type(engine.optimizer).__name__,
            bundle.model.num_parameters(), memory)


if __name__ == "__main__":
    results = repro.launch(config, system_i(), train, world_size=8)
    losses, sim_t, optimizer, n_params, memory = results[0]
    assert optimizer == "ZeroRedundancyOptimizer"
    print(f"trained {EPOCHS} epochs on 8 simulated A100s "
          f"(DP 2 x 2D tensor parallel 4, fp16, ZeRO-2)")
    print(f"loss: {losses[0]:.3f} -> {losses[-1]:.3f}")
    print(f"simulated time: {sim_t*1e3:.2f} ms")
    print(f"rank 0: {n_params} parameters, device bytes by tag {memory}")
    # fp16 weights take 2 bytes each; fp32 master + m + v take 12 per element
    # of this rank's shard, about half the parameters with the padding
    assert memory["param"] == 2 * n_params and memory["optim"] < 12 * n_params
    assert losses[-1] < losses[0], "training should reduce the loss"
    print("OK")
