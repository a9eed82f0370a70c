"""Sequence parallelism on BERT (§5.3 of the paper).

Compares 1D tensor parallelism against sequence parallelism (ring
self-attention) on a BERT-style model:

* memory — the largest sequence length each mode can fit on a small
  simulated GPU (spec-mode OOM search, the Fig 12 method); 1D keeps its
  LM logits sharded along the vocabulary (vocab-parallel cross-entropy),
  so neither mode gathers the full logits, and
* correctness — SP training losses match serial training exactly.

Run:  python examples/bert_sequence_parallel.py
"""

import numpy as np

import repro
from repro.cluster import uniform_cluster
from repro.cluster.device import DeviceOutOfMemoryError
from repro.comm.payload import SpecArray
from repro.models import BertConfig, build_bert
from repro.optim import SGD
from repro.parallel.common import sync_parameter_gradients
from repro.runtime import RemoteRankError
from repro.tensor import Tensor


def _fits(mode, world, batch, seq, mem_gb):
    config = dict(parallel=dict(tensor=dict(size=world, mode=mode)))
    cfg = BertConfig(
        vocab_size=1024, hidden_size=256, n_layers=4, n_heads=8,
        seq_len=seq, dtype="float16",
    )

    def probe(ctx, pc):
        bundle = build_bert(cfg, pc, mode=mode, vocab_parallel_loss=mode == "1d")
        ids = SpecArray((batch, seq), "int64")
        out = bundle.model(bundle.shard_input(ids))
        bundle.loss_fn(out, bundle.shard_target(ids)).backward()

    try:
        repro.launch(
            config, uniform_cluster(world, memory_gb=mem_gb), probe,
            world_size=world, materialize=False,
        )
        return True
    except RemoteRankError as e:
        if isinstance(e.cause, DeviceOutOfMemoryError):
            return False
        raise


def max_seq_len(mode, world, batch=8, mem_gb=2.0, step=64):
    """Largest sequence length whose spec-mode fwd+bwd fits: doubling
    ascent, then binary refinement to ``step`` granularity (the Fig 12b
    method)."""
    lo, hi = 0, step
    while hi <= 32768 and _fits(mode, world, batch, hi, mem_gb):
        lo, hi = hi, hi * 2
    while hi - lo > step:
        mid = (lo + hi) // 2 // step * step
        if _fits(mode, world, batch, mid, mem_gb):
            lo = mid
        else:
            hi = mid
    return lo


def sp_training_matches_serial():
    cfg = BertConfig(vocab_size=64, hidden_size=32, n_layers=2, n_heads=4,
                     seq_len=16, mlp_ratio=2)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 64, (4, 16))
    targets = rng.integers(0, 64, (4, 16))

    # serial reference: 2 training steps of SGD with momentum
    bundle_s = build_bert(cfg, mode="serial")
    opt = SGD(bundle_s.model.parameters(), lr=0.1, momentum=0.9)
    serial_losses = []
    for _ in range(2):
        loss = bundle_s.loss_fn(bundle_s.model(ids), targets)
        loss.backward()
        opt.step()
        opt.zero_grad()
        serial_losses.append(loss.item())

    def train(ctx, pc):
        bundle = build_bert(cfg, pc, mode="sequence")
        opt = SGD(bundle.model.parameters(), lr=0.1, momentum=0.9)
        losses = []
        for _ in range(2):
            loss = bundle.loss_fn(
                bundle.model(bundle.shard_input(ids)), bundle.shard_target(targets)
            )
            loss.backward()
            sync_parameter_gradients(bundle.model)
            opt.step()
            opt.zero_grad()
            losses.append(loss.item())
        return losses

    config = dict(parallel=dict(tensor=dict(size=4, mode="sequence")))
    sp_losses = repro.launch(config, uniform_cluster(4), train, world_size=4)[0]
    return serial_losses, sp_losses


if __name__ == "__main__":
    print("max sequence length before OOM (spec-mode search, 2 GiB GPUs):")
    for mode, world in (("1d", 4), ("sequence", 4), ("sequence", 8)):
        s = max_seq_len(mode, world)
        print(f"  {mode:9s} x{world}: seq <= {s}")

    s1 = max_seq_len("1d", 4)
    ssp = max_seq_len("sequence", 4)
    assert ssp >= s1, "sequence parallelism should reach longer sequences"
    print(f"SP/1D max-seq ratio at 4 ranks: {ssp / s1:.2f}x (Fig 12b shape)")

    serial_losses, sp_losses = sp_training_matches_serial()
    print(f"serial losses: {serial_losses}")
    print(f"SP losses:     {sp_losses}")
    assert all(abs(a - b) < 1e-4 for a, b in zip(serial_losses, sp_losses))
    print("ring self-attention training matches serial exactly")
