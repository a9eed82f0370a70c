"""Quickstart: the paper's Listing 1 workflow on a simulated cluster.

Trains a small ViT with 2D tensor parallelism on 4 simulated A100s,
using the ``config -> launch -> initialize -> engine loop`` API.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro
from repro.cluster import system_i
from repro.data import DataLoader, synthetic_image_classification
from repro.models import ViTConfig, build_vit
from repro.optim import AdamW
from repro.tensor import Tensor

# 1. describe the parallelization declaratively (Listing 1)
config = dict(
    parallel=dict(tensor=dict(size=4, mode="2d")),
    seed=0,
)

vit_cfg = ViTConfig(
    image_size=16, patch_size=4, in_channels=3,
    hidden_size=32, n_layers=2, n_heads=4, n_classes=4, mlp_ratio=2,
)


def train(ctx, pc):
    # 2. build the parallel model + optimizer for this rank
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

    # 3. the Listing-1 training loop
    losses = []
    for epoch in range(3):
        for data, label in loader:
            engine.zero_grad()
            output = engine(Tensor(bundle.shard_input(data)))
            loss = bundle.loss_fn(output, bundle.shard_target(label))
            engine.backward(loss)
            engine.step()
            losses.append(loss.item())
    return losses, ctx.clock.time


if __name__ == "__main__":
    results = repro.launch(config, system_i(), train, world_size=4)
    losses, sim_t = results[0]
    print(f"trained 3 epochs on 4 simulated A100s (2D tensor parallel)")
    print(f"loss: {losses[0]:.3f} -> {losses[-1]:.3f}")
    print(f"simulated time: {sim_t*1e3:.2f} ms")
    assert losses[-1] < losses[0], "training should reduce the loss"
    print("OK")
