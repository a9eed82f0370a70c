"""Hybrid parallelism: pipeline x tensor parallel training (§3.1 "hybrid
parallelism is available out of the box").

Splits a small GPT across 2 pipeline stages, with each stage's layers 1D
tensor-parallel over 2 ranks (4 simulated GPUs total), runs microbatched
GPipe training, and checks the loss matches pure serial training.

Run:  python examples/pipeline_hybrid.py
"""

import numpy as np

import repro
from repro.cluster import uniform_cluster
from repro.models import GPTConfig, build_gpt
from repro.nn import CrossEntropyLoss
from repro.parallel.pipeline import GPipeSchedule
from repro.tensor import Tensor

CFG = GPTConfig(vocab_size=64, hidden_size=32, n_layers=4, n_heads=4,
                seq_len=16, mlp_ratio=2, dtype="float32", seed=21)
MICROBATCHES = 4
rng_data = np.random.default_rng(1)
IDS = rng_data.integers(0, CFG.vocab_size, (8, CFG.seq_len))
TARGETS = rng_data.integers(0, CFG.vocab_size, (8, CFG.seq_len))


def serial_loss():
    crit = CrossEntropyLoss()
    loss = crit(build_gpt(CFG)(Tensor(IDS)), TARGETS)
    return loss.item()


def hybrid_losses():
    config = dict(
        parallel=dict(tensor=dict(size=2, mode="1d"), pipeline=2),
        num_microbatches=MICROBATCHES,
    )

    def train(ctx, pc):
        stage = build_gpt(CFG, pc)
        sched = GPipeSchedule(pc, MICROBATCHES)
        crit = CrossEntropyLoss()
        loss = sched.run(
            stage,
            IDS if pc.is_first_pipeline_stage() else None,
            TARGETS if pc.is_last_pipeline_stage() else None,
            crit,
        )
        return loss, ctx.clock.time

    return repro.launch(config, uniform_cluster(4), train, world_size=4)


if __name__ == "__main__":
    ref = serial_loss()
    results = hybrid_losses()
    pipeline_loss = next(l for l, _ in results if l is not None)
    times = [t for _, t in results]
    print(f"serial loss:           {ref:.6f}")
    print(f"pipeline x tensor loss: {pipeline_loss:.6f}")
    print(f"per-rank simulated times (bubble visible): "
          f"{['%.1fus' % (t*1e6) for t in times]}")
    assert abs(ref - pipeline_loss) < 1e-4
    print("hybrid pipeline+tensor training matches serial (4 GPUs = 2 stages x 2-way TP)")
