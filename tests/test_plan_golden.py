"""Planning behaviour frozen against ``tests/plan_golden.json``.

The serving, training and comm goldens' sibling for the planning surface
(ROADMAP item 6's "one compile scenario"): ``compile_strategy`` on Systems
I/8, II/8 and IV/64 for the Fig-11 GPT — every ``CandidateScore`` in
enumeration order with one sha256 per field (floats as ``float.hex()``,
rejection text verbatim) so a mismatch names the term that moved, the
refined shortlist, the emitted config and the report text — the threaded
``simulate_candidate`` of each chosen plan, and the bench's 16-rank
DP4 x TP2 x PP2 capture replayed recorded, under a ``Tracer`` (span stream
in order: labelled advances must still annotate), at ``compute_scale=1.5``
and projected model-mode to 64/512/1024 ranks.  A refactor of the scoring
stage or the replay sweep is done when this file still passes.

It was generated at commit ``d81eb36`` (a ``(algorithm, op, ranks,
nbytes)`` price memo behind ``score_candidate``, three frames per replayed
clock advance); ``replay/gpt16``'s span hash was re-cut when the replay
began emitting the threaded run's span names and arguments (DESIGN §4q) —
``test_conformance``'s replay relation holds the two equal.  Its report hashes were
re-cut when GPipe began freeing each microbatch's stage output after its
backward (DESIGN §4x): the captured peak memory fell, no clock moved.
Its compile counts, score, format and shortlist hashes were re-cut when
the search stopped offering ZeRO-3 and overlap outside pure data
parallelism (DESIGN §4i): every chosen plan, config, predicted and
simulated step held.

Regenerate (only when planning behaviour is *meant* to change):
``PYTHONPATH=src python tests/test_plan_golden.py``
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.autopar import Workload, compile_strategy, simulate_candidate
from repro.cluster import system_i, system_ii, system_iv, uniform_cluster
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.nn import CrossEntropyLoss, Linear, Sequential
from repro.parallel.data import sync_gradients
from repro.parallel.pipeline import GPipeSchedule, partition_uniform
from repro.parallel.tensor1d import ParallelTransformerLayer1D
from repro.project import (
    ScalePlan,
    capture_run,
    derive_axis_groups,
    hybrid_plan,
    project,
)
from repro.trace import Tracer

from test_train_golden import _sha

pytestmark = [pytest.mark.autopar, pytest.mark.projection]

GOLDEN = Path(__file__).with_name("plan_golden.json")

GPT = Workload(n_layers=16, hidden=3072, n_heads=48, seq_len=196)
#: label -> (cluster factory, world, global batch); System IV refines
#: through the model-mode path (probe at <= 16 ranks, DP widened)
SYSTEMS = {
    "system_i": (system_i, 8, 256),
    "system_ii": (system_ii, 8, 256),
    "system_iv": (system_iv, 64, 512),
}

WORLD, TP, PP = 16, 2, 2  # captured layout: DP4 x TP2 x PP2
LAYERS, HIDDEN, HEADS, CLASSES = 4, 128, 8, 16
BATCH, SEQ, MICROBATCHES, SEED = 8, 4, 2, 1
#: axis factors of the model-mode projections: 64, 512, 1024 ranks
PROJECTIONS = ({"dp": 4}, {"dp": 8, "tp": 2, "pp": 2},
               {"dp": 16, "tp": 2, "pp": 2})


def _hex(x):
    return float(x).hex() if isinstance(x, float) else x


def _candidate(cand):
    return list(cand.sort_key())


def compile_case(label):
    mk, world, batch = SYSTEMS[label]
    cs = compile_strategy(mk(), GPT, batch, world_size=world,
                          max_probe_world=16)
    fields = [f.name for f in dataclasses.fields(cs.score)]
    assert len(fields) == 11
    columns = {
        name: [
            _candidate(s.candidate) if name == "candidate"
            else _hex(getattr(s, name))
            for s in cs.report.scored
        ]
        for name in fields
    }
    shortlist = [
        [_candidate(s.candidate), r.step_seconds.hex(), r.mode,
         r.dp_factor, r.probe_world]
        for s, r in cs.report.shortlist
    ]
    truth = simulate_candidate(mk(), GPT, cs.candidate, batch)
    sections = {f"scores.{name}": col for name, col in columns.items()}
    sections.update(
        shortlist=shortlist, config=cs.config, format=cs.report.format())
    return {
        "chosen": cs.candidate.describe(),
        "candidates": len(cs.report.scored),
        "rejected": cs.report.rejection_counts(),
        "predicted_step": cs.predicted_step_seconds.hex(),
        "simulated_step": truth.hex(),
        "sha256": {name: _sha(body) for name, body in sections.items()},
    }


def hybrid_gpt_step():
    """``bench/workloads/planning.py``'s materialized hybrid GPT step, as a
    rank program (DP is whatever the world leaves after TP x PP)."""
    config = Config.from_dict(dict(
        parallel=dict(tensor=dict(size=TP, mode="1d"), pipeline=PP),
        num_microbatches=MICROBATCHES, seed=SEED))
    rng = np.random.default_rng([SEED, 0])
    X = rng.standard_normal((BATCH, SEQ, HIDDEN)).astype(np.float32)
    Y = rng.integers(0, CLASSES, (BATCH, SEQ))
    crit = CrossEntropyLoss()

    def step(ctx):
        pc = ParallelContext(ctx, config)
        start, end = partition_uniform(LAYERS, pc.pipeline_size)[pc.pp_rank]
        stage = Sequential([
            ParallelTransformerLayer1D(
                HIDDEN, HEADS, pc.comm(ParallelMode.TENSOR), 2, causal=True,
                rng=np.random.default_rng([SEED, 5, i]))
            for i in range(start, end)
        ])
        if pc.is_last_pipeline_stage():
            stage.append(Linear(HIDDEN, CLASSES, rng=np.random.default_rng([SEED, 9])))
        GPipeSchedule(pc, MICROBATCHES).run(
            stage,
            X if pc.is_first_pipeline_stage() else None,
            Y if pc.is_last_pipeline_stage() else None,
            crit)
        sync_gradients(stage.parameters(), pc.comm(ParallelMode.DATA))
        return ctx.clock.time

    return step


def _capture():
    steps, trace = capture_run(uniform_cluster(WORLD), hybrid_gpt_step(),
                               world_size=WORLD, materialize=True, seed=SEED)
    trace.axes = derive_axis_groups(WORLD, tensor=TP, pipeline=PP)
    return steps, trace


def replay_case():
    steps, trace = _capture()
    recorded = project(trace, mode="recorded")
    assert recorded.step_time == max(steps)
    tracer = Tracer()
    traced = project(trace, mode="recorded", tracer=tracer)
    assert traced.to_dict() == recorded.to_dict()
    labelled = sum(1 for s in trace.streams for ev in s
                   if ev[0] == "a" and ev[3] is not None)
    spans = tracer.spans()
    assert labelled > 0 and sum(
        1 for s in spans if s.kind == "annotation"
        and s.cat not in ("collective", "p2p", "comm_stream", "overlap")
    ) == labelled
    scaled = project(trace, plan=ScalePlan(compute_scale=1.5),
                     mode="recorded")
    assert scaled.step_time > recorded.step_time
    sections = {
        "recorded": recorded.to_dict(),
        # single-threaded replay: append order is the sweep's order
        "spans": [[s.rank, s.cat, s.name, s.t0.hex(), s.t1.hex(), s.kind,
                   s.args] for s in spans],
        "compute_scale_1.5": scaled.to_dict(),
    }
    clocks = [recorded.step_time, scaled.step_time]
    for factors in PROJECTIONS:
        report = project(trace, plan=hybrid_plan(
            dict(factors), world=WORLD, tensor=TP, pipeline=PP))
        assert report.mode == "model"
        sections[f"model_{report.target_world}"] = report.to_dict()
        clocks.append(report.step_time)
    return {
        "clocks": clocks,
        "events": trace.event_count(),
        "spans": len(spans),
        "sha256": {name: _sha(body) for name, body in sections.items()},
    }


CASES = {f"compile/{label}": (lambda l=label: compile_case(l))
         for label in SYSTEMS}
CASES["replay/gpt16"] = replay_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    assert CASES[name]() == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: CASES[name]() for name in sorted(CASES)}, indent=2) + "\n")
