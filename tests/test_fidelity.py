"""Fidelity cells: what a predictor says against what the simulator runs.

Each cell states today's measured value to 3 significant digits next to the
prediction it is scored against.  A cell that is off says so here; it is
not hidden behind a tolerance.  A change that moves a cell re-cuts it and
names the cause in its commit.

Pipeline cells (the schedule order, DESIGN §4x): the uniform toy pipeline of
``test_conformance`` run in spec mode under a ``Tracer``, its
``TraceReport.bubble_fraction`` against the closed form ``(p-1)/(m+p-1)``
both orders share.  The toy stage is bound by point-to-point transfers, not
compute, so the closed form's free-hop premise does not hold: GPipe's
blocking sends use one direction of a link at a time, while 1F1B sends
activations and gradients in both directions at once.

Probe cell: the strategy compiler's skeleton probe walks the candidate's
own order, its scorer prices both orders with one bubble term.

Compile cells (ROADMAP item 8(a)): the Fig-11 GPT of ``test_plan_golden``
(16 x 3072, 48 heads, 196 tokens) compiled on Systems I/8, II/8 and IV/64,
and each compile's emitted config launched in spec mode as a ``Sequential``
of 16 fp16 ``TransformerLayer(mode=tensor_mode(pc))`` through
``initialize`` + ``Adam``: one forward, backward and ``Engine.step``, with
no checkpointing and no embeddings.  "golden" is the default search space;
"launchable" restricts it to what ``initialize`` builds as priced
(``overlap_options=(False,)``, ``zero_stages=(0, 1, 2)``).  Each cell reads:

* scored ÷ launched: ``CandidateScore.step_seconds`` over the launched step,
  the slowest rank's time from the first forward op to the end of
  ``Engine.step``;
* the launched step's split: forward + backward (the slowest rank's time to
  the end of backward) and the step phase (the rest of the launched step);
* memory, in GB of 1e9 bytes: the scored ``CandidateScore.memory_bytes``
  and the launched pool peak, the largest device ``MemoryPool.peak`` over
  the ranks after the step (parameters, fp16 gradients, Adam state and
  activations, as the pool allocated them).
"""

import pytest

import repro
from repro.autopar import Workload, compile_strategy, score_candidate
from repro.autopar.compiler import simulate_candidate
from repro.autopar.search import SearchSpace, StrategyCandidate
from repro.cluster import system_i, system_ii, system_iii, system_iv, uniform_cluster
from repro.comm import SpecArray
from repro.engine import initialize
from repro.nn import Sequential, TransformerLayer
from repro.optim import Adam
from repro.parallel import tensor_mode
from repro.parallel.pipeline import GPipeSchedule, OneFOneBSchedule
from repro.parallel.pipeline.schedule import bubble_fraction
from repro.runtime import SpmdRuntime
from repro.tensor import Tensor
from repro.trace import TraceReport, Tracer

from test_conformance import pipeline_prog


def _sig3(x):
    return float(f"{x:.3g}")


#: (stages, microbatches, schedule) -> (measured bubble, closed form): only
#: 1F1B at pp 2 / m 4 meets the closed form today
PIPELINE_CELLS = {
    (2, 4, GPipeSchedule): (0.500, 0.200),
    (2, 4, OneFOneBSchedule): (0.200, 0.200),
    (4, 8, GPipeSchedule): (0.377, 0.273),
    (4, 8, OneFOneBSchedule): (0.342, 0.273),
    (4, 4, GPipeSchedule): (0.467, 0.429),
    (4, 4, OneFOneBSchedule): (0.415, 0.429),
}


@pytest.mark.parametrize("stages, m, sched_cls", list(PIPELINE_CELLS),
                         ids=lambda v: getattr(v, "kind", v))
def test_pipeline_bubble_against_the_closed_form(stages, m, sched_cls):
    tracer = Tracer()
    rt = SpmdRuntime(uniform_cluster(4), stages, tracer=tracer)
    rt.run(pipeline_prog(sched_cls, stages=stages, microbatches=m), materialize=False)
    measured = TraceReport.from_tracer(tracer).bubble_fraction()
    assert (_sig3(measured), _sig3(bubble_fraction(stages, m))) == PIPELINE_CELLS[
        stages, m, sched_cls]


def test_probe_walks_the_1f1b_order_the_scorer_prices_like_gpipe():
    """System III, 2 nodes, dp4 x pp2, 4 microbatches: the scorer gives both
    orders one step time (bubble 0.2, blocking hops on the critical path);
    the probe runs each order, and 1F1B's overlaps the two directions of
    the stage boundary."""
    work = Workload(n_layers=8, hidden=512, n_heads=8, seq_len=128)
    probed, scored = {}, {}
    for kind in ("gpipe", "1f1b"):
        cluster = system_iii(n_nodes=2)
        cand = StrategyCandidate(data=4, tensor=1, mode="1d", pipeline=2, schedule=kind,
                                 microbatches=4, algorithm="ring")
        score = score_candidate(cluster, work, cand, 64)
        scored[kind] = _sig3(score.step_seconds * 1e3)
        probed[kind] = _sig3(simulate_candidate(cluster, work, cand, 64,
                                                score.compute_seconds) * 1e3)
    assert scored == {"gpipe": 4.78, "1f1b": 4.78}
    assert probed == {"gpipe": 4.44, "1f1b": 3.93}


GPT = Workload(n_layers=16, hidden=3072, n_heads=48, seq_len=196)
#: label -> (cluster factory, world, global batch), as ``test_plan_golden``
SYSTEMS = {"I": (system_i, 8, 256), "II": (system_ii, 8, 256), "IV": (system_iv, 64, 512)}
SPACES = {"golden": None,
          "launchable": SearchSpace(overlap_options=(False,), zero_stages=(0, 1, 2))}

#: (system, space) -> (plan, scored ÷ launched, (fwd+bwd, step) seconds,
#: (scored, pool peak) GB).  The scorer prices every plan's step phase at
#: about zero, and memory is off in both directions.
COMPILE_CELLS = {
    ("I", "golden"): ("dp8 * tp1 * pp1 [overlap, auto]", 0.876, (0.491, 0.0636), (43.9, 29.1)),
    ("I", "launchable"): ("dp4 * 1dx2 * pp1 [zero1, auto]", 0.855, (0.525, 0.0777), (21.2, 34.9)),
    ("II", "golden"): ("dp8 * tp1 * pp1 [overlap, auto]", 0.701, (0.491, 0.202), (43.9, 29.1)),
    ("II", "launchable"): ("dp1 * 3dx8 * pp1 [auto]", 0.422, (1.52, 0.00065), (18.5, 22.0)),
    ("IV", "golden"):
        ("dp64 * tp1 * pp1 [zero1, overlap, auto]", 0.604, (2.30, 1.47), (11.3, 12.9)),
    ("IV", "launchable"): ("dp16 * 1dx4 * pp1 [auto]", 0.920, (2.67, 0.175), (11.0, 12.1)),
}


def launched_step(cluster, world, global_batch, config):
    """``config`` launched in spec mode as the item-8 stack: the slowest
    rank's forward + backward seconds, its whole step (through
    ``Engine.step``) and the largest device pool peak in bytes."""
    width, heads, tokens = GPT.hidden, GPT.n_heads, GPT.seq_len

    def prog(ctx, pc):
        mode = tensor_mode(pc)
        model = Sequential([TransformerLayer(width, heads, dtype="float16", mode=mode)
                            for _ in range(GPT.n_layers)])
        engine = initialize(model, Adam(model.parameters()), pc=pc)
        x = Tensor(SpecArray(mode.local_shape(global_batch // pc.data_size, tokens, width),
                             "float16"), requires_grad=True)
        t0 = ctx.clock.time
        engine.backward(engine(x).sum())
        t1 = ctx.clock.time
        engine.step()
        return t1 - t0, ctx.clock.time - t0, ctx.device.memory.peak

    ranks = repro.launch(config, cluster, prog, world_size=world, materialize=False)
    return tuple(max(col) for col in zip(*ranks))


@pytest.mark.autopar
@pytest.mark.parametrize("system, space", list(COMPILE_CELLS),
                         ids=[f"{a}-{b}" for a, b in COMPILE_CELLS])
def test_compiled_plan_against_its_launched_step(system, space):
    mk, world, batch = SYSTEMS[system]
    cs = compile_strategy(mk(), GPT, batch, world_size=world, space=SPACES[space])
    fwd_bwd, step, peak = launched_step(mk(), world, batch, cs.config)
    assert (cs.candidate.describe(), _sig3(cs.score.step_seconds / step),
            (_sig3(fwd_bwd), _sig3(step - fwd_bwd)),
            (_sig3(cs.score.memory_bytes / 1e9), _sig3(peak / 1e9))
            ) == COMPILE_CELLS[system, space]


#: (algorithm, W) -> projected ÷ direct step time (ROADMAP item 16(a)): the
#: item-8 stack as DDP on System III, 8 rows per rank, captured at 16 ranks and
#: launched with ``project.target_world = W``, over a direct spec run at W.
#: Every cell under-predicts, more so the wider the projection.
SCALE_CELLS = {
    ("ring", 64): 0.988, ("ring", 256): 0.968, ("ring", 1024): 0.947,
    ("hierarchical", 64): 0.989, ("hierarchical", 256): 0.967, ("hierarchical", 1024): 0.934,
    ("auto", 64): 0.963, ("auto", 256): 0.937, ("auto", 1024): 0.921,
}


def ddp_step(ctx, pc):
    """One ``initialize`` + ``Adam`` step of the item-8 stack on 8 rows; the
    rank's clock at its end."""
    model = Sequential([TransformerLayer(GPT.hidden, GPT.n_heads, dtype="float16")
                        for _ in range(GPT.n_layers)])
    engine = initialize(model, Adam(model.parameters()), pc=pc)
    x = Tensor(SpecArray((8, GPT.seq_len, GPT.hidden), "float16"), requires_grad=True)
    engine.backward(engine(x).sum())
    engine.step()
    return ctx.clock.time


@pytest.mark.projection
@pytest.mark.parametrize("algorithm, world", [
    pytest.param(a, w, marks=[pytest.mark.slow] if w == 1024 else [])
    for a, w in SCALE_CELLS], ids=[f"{a}-{w}" for a, w in SCALE_CELLS])
def test_projection_against_the_direct_run_it_predicts(algorithm, world):
    comm = dict(algorithm=algorithm)
    projected = repro.launch(dict(comm=comm, project=dict(mode="project", target_world=world)),
                             system_iii(n_nodes=4), ddp_step, world_size=16,
                             materialize=False).step_time
    direct = max(repro.launch(dict(comm=comm), system_iii(n_nodes=world // 4), ddp_step,
                              world_size=world, materialize=False))
    assert _sig3(projected / direct) == SCALE_CELLS[algorithm, world]
