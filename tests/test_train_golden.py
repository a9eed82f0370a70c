"""Training behaviour frozen against ``tests/train_golden.json``.

The serving golden's sibling (``test_serve_golden.py``) for the training
stack: five small seeded runs, each reduced to every rank's final
simulated clock (kept readable) and a sha256 per section — the
``time_breakdown`` rows and comm-stream heads, per-rank ``MemoryPool`` peak
and end-of-step by-tag bytes, the ``CommCounters`` of every group the
program used, real-mode losses bit for bit, and for the capture case the
per-rank ``note_op`` + clock-advance streams, the priced rounds and the
recorded replay's report.  A refactor of autograd / tensor / comm dispatch
is done when this file still passes.

It was generated at commit ``63b511f`` (``Function.apply`` still resolving
the rank context per helper, one ``weakref.finalize`` per ``Storage``);
``bert_sp_pp2`` was added at ``66412f6``, and its step seconds, wire bytes
and collective calls are the figures recorded for that step before the
event-driven rendezvous, pooled buffers and spec-mode shortcuts.  The
``memory`` hashes of ``hybrid_gpt_gpipe`` and ``bert_sp_pp2`` were re-cut
when the pipeline executor began freeing each microbatch's stage output
after its backward under GPipe too (DESIGN §4x): lower peaks, nothing else.

Regenerate (only when simulated training behaviour is *meant* to change):
``PYTHONPATH=src python tests/test_train_golden.py``
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.autograd import ops
from repro.cluster import system_ii, system_iii, uniform_cluster
from repro.comm import Communicator, CostModel, SpecArray
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.models.bert import bert_base
from repro.nn import CrossEntropyLoss, Linear, Module, Sequential, TransformerLayer
from repro.parallel.data import DistributedDataParallel, sync_gradients
from repro.parallel.pipeline import GPipeSchedule, partition_uniform
from repro.parallel.sequence import ModeSequence
from repro.parallel.tensor1d import ParallelTransformerLayer1D
from repro.project import capture_run, project
from repro.runtime import SpmdRuntime
from repro.sanitize import CommSanitizer
from repro.tensor import Tensor
from repro.trace import Tracer
from repro.utils.profile import time_breakdown
from repro.zero import StaticPolicy, ZeroOffloadEngine

GOLDEN = Path(__file__).with_name("train_golden.json")


def _sha(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _sig(x):
    """Cross-thread ``+=`` accumulators are order-dependent in the last
    bits; everything else is hashed exactly."""
    return float(f"{x:.9e}")


def _memory(ctx):
    """Read on the rank, at the end of its step: peak and live bytes by
    tag do not depend on when the host collects the program's tensors."""
    pool = ctx.device.memory
    return {"peak": pool.peak, "by_tag": pool.breakdown()}


def _counters(rt, groups):
    out = {}
    for ranks in sorted(set(tuple(g) for g in groups)):
        c = rt.group(ranks).counters
        out[",".join(map(str, ranks))] = {
            "bytes": c.bytes_total, "elements": c.elements_total,
            "calls": c.calls_total, "by_op_bytes": c.by_op_bytes,
            "by_op_calls": c.by_op_calls,
            "by_algorithm_bytes": c.by_algorithm_bytes,
            "exposed_s": _sig(c.exposed_seconds_total),
            "overlapped_s": _sig(c.overlapped_seconds_total),
        }
    return out


def _summary(rt, memory, groups, **extra):
    sections = {
        "time_breakdown": time_breakdown(rt),
        "streams": [s.time for s in rt.comm_streams],
        "memory": memory,
        "counters": _counters(rt, groups),
        **extra,
    }
    return {
        "clocks": [c.time for c in rt.clocks],
        "sha256": {name: _sha(body) for name, body in sections.items()},
    }


def _ddp_step(ctx, layers=4, hidden=256, heads=4, batch=2, seq=16):
    """Checkpointed fp16 ViT body under DDP, gradient buckets (1 MiB, so
    several) all-reduced from the backward hooks."""
    pc = ParallelContext(ctx, Config.from_dict({}))
    ddp = DistributedDataParallel(
        Sequential([TransformerLayer(hidden, heads, dtype="float16")
                    for _ in range(layers)], checkpoint=True),
        pc, bucket_mb=1.0, overlap=True)
    x = Tensor(SpecArray((batch, seq, hidden), "float16"), requires_grad=True)
    ddp(x).sum().backward()
    ddp.sync()
    return _memory(ctx)


def ddp_vit_spec8():
    rt = SpmdRuntime(system_ii(), 8, comm_overlap=True)
    memory = rt.run(_ddp_step, materialize=False, seed=3)
    return _summary(rt, memory, [range(8)])


def hybrid_gpt_gpipe():
    """DP2 x TP2(1D) x PP2, GPipe over 4 microbatches, then DP sync."""
    layers, hidden, heads, micro = 4, 128, 4, 4
    config = Config.from_dict(dict(
        parallel=dict(tensor=dict(size=2, mode="1d"), pipeline=2),
        num_microbatches=micro, seed=5))
    rt = SpmdRuntime(system_iii(n_nodes=2), 8)

    def prog(ctx, pc):
        start, end = partition_uniform(layers, 2)[pc.pp_rank]
        stage = Sequential([
            ParallelTransformerLayer1D(
                hidden, heads, pc.comm(ParallelMode.TENSOR), causal=True,
                dtype="float16")
            for _ in range(end - start)])
        GPipeSchedule(pc, micro).run(
            stage,
            SpecArray((8, 32, hidden), "float16")
            if pc.is_first_pipeline_stage() else None,
            None,
            (lambda out, y: out.sum())
            if pc.is_last_pipeline_stage() else None)
        sync_gradients(stage.parameters(), pc.comm(ParallelMode.DATA))
        groups = [tuple(pc.comm(mode).group.ranks) for mode in (
            ParallelMode.DATA, ParallelMode.TENSOR, ParallelMode.PIPELINE)]
        return _memory(ctx), groups

    out = repro.launch(config, rt.cluster, prog, world_size=8,
                       materialize=False, runtime=rt)
    return _summary(rt, [m for m, _ in out], [g for _, gs in out for g in gs])


def bert_sp_pp2(sanitize=None):
    """The Fig-13b step: BERT-Base at sequence length 512 (6 of its 12
    layers), sequence parallelism 4-way x 2 GPipe stages over 4
    microbatches of a batch of 32, on two System III nodes.  ``step`` is
    (seconds, wire bytes, collective calls) over every group it used."""
    bert, layers, batch, micro = bert_base(seq_len=512), 6, 32, 4
    config = Config.from_dict(dict(
        parallel=dict(tensor=dict(size=4, mode="sequence"), pipeline=2),
        num_microbatches=micro))
    rt = SpmdRuntime(system_iii(n_nodes=2), 8, sanitize=sanitize)

    def prog(ctx, pc):
        start, end = partition_uniform(layers, 2)[pc.pp_rank]
        stage = Sequential([
            TransformerLayer(
                bert.hidden_size, bert.n_heads, dtype="float16",
                mode=ModeSequence(pc.comm(ParallelMode.SEQUENCE)))
            for _ in range(end - start)])
        GPipeSchedule(pc, micro).run(
            stage,
            SpecArray((batch, bert.seq_len // 4, bert.hidden_size), "float16")
            if pc.is_first_pipeline_stage() else None,
            None,
            (lambda out, y: out.sum())
            if pc.is_last_pipeline_stage() else None)
        groups = [tuple(pc.comm(mode).group.ranks) for mode in (
            ParallelMode.SEQUENCE, ParallelMode.PIPELINE)]
        return _memory(ctx), groups

    out = repro.launch(config, rt.cluster, prog, world_size=8,
                       materialize=False, runtime=rt)
    groups = {g for _, gs in out for g in gs}
    summary = _summary(rt, [m for m, _ in out], groups)
    counters = [rt.group(g).counters for g in sorted(groups)]
    summary["step"] = [
        max(summary["clocks"]),
        sum(c.bytes_total for c in counters),
        sum(c.calls_total for c in counters),
    ]
    return summary


class _Block(Module):
    def __init__(self, rng, hidden, out):
        super().__init__()
        self.lin = Linear(hidden, out, rng=rng)
        self.act = out == hidden

    def forward(self, x):
        y = self.lin(x)
        return ops.gelu(y) if self.act else y


def zero_offload_real4(**runtime_kwargs):
    """Materialized ``ZeroOffloadEngine``, static host offload: the losses
    are part of the golden, bit for bit.  ``runtime_kwargs`` go to the
    ``SpmdRuntime`` (observers, the buffer pool)."""
    world, hidden, classes, local, steps = 4, 32, 8, 8, 3
    rng = np.random.default_rng(11)
    X = rng.standard_normal((world * local, hidden)).astype(np.float32)
    Y = rng.integers(0, classes, world * local)
    rt = SpmdRuntime(uniform_cluster(world), **runtime_kwargs)

    def prog(ctx):
        blocks = [_Block(np.random.default_rng([11, i]), hidden, out)
                  for i, out in enumerate((hidden, hidden, classes))]
        eng = ZeroOffloadEngine(
            ctx, blocks, Communicator.world(ctx),
            StaticPolicy(ctx.device, ctx.cpu, CostModel(ctx.cluster),
                         ctx.rank),
            criterion=CrossEntropyLoss(), chunk_mb=0.002, lr=1e-2,
            param_dtype="float32")
        lo = ctx.rank * local
        losses = [eng.train_step(X[lo:lo + local], Y[lo:lo + local])
                  for _ in range(steps)]
        return _memory(ctx), [float(v).hex() for v in losses]

    out = rt.run(prog, seed=11)
    return _summary(rt, [m for m, _ in out], [range(world)],
                    losses=[losses for _, losses in out])


def capture_replay():
    """Capture the 4-rank overlapped DDP step, replay it recorded: the
    streams hold every ``note_op`` label with the exact ``dt`` it
    advanced the clock by, in order."""
    _, trace = capture_run(
        system_ii(), lambda ctx: _ddp_step(ctx, layers=2, hidden=128),
        world_size=4, comm_overlap=True, seed=7)
    report = project(trace, mode="recorded")
    assert report.step_time == trace.max_time
    labels = {ev[3] for s in trace.streams for ev in s if ev[0] == "a"}
    assert {"MatMul", "MatMulBackward", "LayerNormBackward"} <= labels
    return {
        "clocks": [r.total_time for r in report.per_rank],
        "sha256": {
            "streams": _sha(trace.streams),
            "rounds": _sha(sorted(
                (list(k), v) for k, v in trace.rounds.items())),
            "peak_memory": _sha(trace.peak_memory),
            "replay": _sha(report.to_dict()),
        },
    }


CASES = {
    "bert_sp_pp2": bert_sp_pp2,
    "ddp_vit_spec8": ddp_vit_spec8,
    "hybrid_gpt_gpipe": hybrid_gpt_gpipe,
    "zero_offload_real4": zero_offload_real4,
    "capture_replay": capture_replay,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    assert CASES[name]() == json.loads(GOLDEN.read_text())[name]


@pytest.mark.parametrize("checksum", [False, True])
def test_sanitizer_moves_no_simulated_number(checksum):
    """Spec checks and checksums ride on the rounds the step already
    makes: every clock, counter and stream head is the bare run's."""
    got = bert_sp_pp2(CommSanitizer(checksum=checksum))
    assert got["step"] == [0.04321134147962983, 2768240640, 368]
    assert got == json.loads(GOLDEN.read_text())["bert_sp_pp2"]


@pytest.mark.parametrize("observed", ["tracer", "sanitizer", "unpooled"])
def test_real_step_is_observer_invariant(observed):
    """Observing the materialized ZeRO run, or running it without the
    buffer pool, moves no clock, counter, stream, memory peak or loss bit."""
    tracer, san = Tracer(), CommSanitizer(checksum=True, race=True)
    kwargs = {"tracer": dict(tracer=tracer), "sanitizer": dict(sanitize=san),
              "unpooled": dict(buffer_pool=False)}[observed]
    got = zero_offload_real4(**kwargs)
    assert got == json.loads(GOLDEN.read_text())["zero_offload_real4"]
    if observed == "tracer":
        assert tracer.spans()
    if observed == "sanitizer":
        assert san.rounds_checked > 0 and san.mismatches == 0


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: CASES[name]() for name in sorted(CASES)}, indent=2) + "\n")
