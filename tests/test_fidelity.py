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

Layer cells (ROADMAP item 29): the scorer's ``TpOp`` elements for one
Transformer layer against the counters of a spec-mode forward + backward of
``TransformerLayer(mode)``, per tensor mode.

Compile cells (ROADMAP item 8(a)): the Fig-11 GPT of ``test_plan_golden``
(16 x 3072, 48 heads, 196 tokens) compiled on Systems I/8, II/8 and IV/64,
and each compile's emitted config launched by
``repro.autopar.compiler.launched_step`` (DESIGN §4ae): a ``Sequential`` of
16 fp16 ``TransformerLayer(mode=tensor_mode(pc))`` through ``initialize`` +
``Adam``, one forward, backward and ``Engine.step``, with no checkpointing
and no embeddings.  "golden" is the default search space;
"launchable" restricts it to what ``initialize`` builds as priced
(``overlap_options=(False,)``: every golden plan is fp16, and ``initialize``
overlaps no fp16 plan).  Each cell reads:

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
from repro.autopar.compiler import launched_program, launched_step, simulate_candidate
from repro.autopar.scoring import tp_layer_ops
from repro.autopar.search import SearchSpace, StrategyCandidate
from repro.cluster import system_i, system_ii, system_iii, system_iv, uniform_cluster
from repro.comm import SpecArray
from repro.nn import TransformerLayer
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


#: mode -> (tensor section, scored ÷ counted wire elements) of one layer
#: (b 4, s 8, h 16, 4 heads).  1D is charged two all-reduces of ``b s h``
#: where the layer issues four, one per attention / MLP block and direction;
#: 2D / 2.5D / 3D miss 4-9 % of their traffic.  The fix waits for ZeRO-1's
#: step phase to be priced (ROADMAP item 29)
TP_LAYER_CELLS = {"1d": (dict(size=2, mode="1d"), 0.500),
                  "2d": (dict(size=4, mode="2d"), 0.956),
                  "2.5d": (dict(size=8, mode="2.5d", depth=2), 0.956),
                  "3d": (dict(size=8, mode="3d"), 0.912)}


@pytest.mark.parametrize("mode", list(TP_LAYER_CELLS))
def test_scored_layer_traffic_against_the_layer_counters(mode):
    tensor, cell = TP_LAYER_CELLS[mode]
    size, depth = tensor["size"], tensor.get("depth", 1)
    b, s, h = 4, 8, 16
    config = dict(parallel=dict(tensor=tensor))

    def prog(ctx, pc):
        tmode = tensor_mode(pc)
        x = Tensor(SpecArray(tmode.local_shape(b, s, h)), requires_grad=True)
        TransformerLayer(h, 4, mode=tmode)(x).sum().backward()

    rt = SpmdRuntime(uniform_cluster(size))
    repro.launch(config, rt.cluster, prog, runtime=rt, materialize=False)
    counted = sum(g.counters.elements_total for g in rt._groups.values())
    work = Workload(n_layers=1, hidden=h, n_heads=4, seq_len=s, bytes_per_elem=4)
    ops = tp_layer_ops(work, StrategyCandidate(1, size, mode, 1, depth=depth), b)
    scored = sum(op.nbytes for op in ops) * size // work.bytes_per_elem
    assert _sig3(scored / counted) == cell


GPT = Workload(n_layers=16, hidden=3072, n_heads=48, seq_len=196)
#: label -> (cluster factory, world, global batch), as ``test_plan_golden``
SYSTEMS = {"I": (system_i, 8, 256), "II": (system_ii, 8, 256), "IV": (system_iv, 64, 512)}
SPACES = {"golden": None,
          "launchable": SearchSpace(overlap_options=(False,))}

#: (system, space) -> (plan, scored ÷ launched, (fwd+bwd, step) seconds,
#: (scored, pool peak) GB).  The scorer prices every plan's step phase at
#: about zero, and memory is off in both directions.
COMPILE_CELLS = {
    ("I", "golden"): ("dp8 * tp1 * pp1 [overlap, auto]", 0.876, (0.491, 0.0636), (43.9, 29.1)),
    ("I", "launchable"): ("dp4 * 1dx2 * pp1 [zero1, auto]", 0.920, (0.525, 0.0350), (21.2, 34.9)),
    ("II", "golden"): ("dp8 * tp1 * pp1 [overlap, auto]", 0.701, (0.491, 0.202), (43.9, 29.1)),
    ("II", "launchable"): ("dp1 * 3dx8 * pp1 [auto]", 0.422, (1.52, 0.00065), (18.5, 22.0)),
    ("IV", "golden"):
        ("dp64 * tp1 * pp1 [zero1, overlap, auto]", 0.750, (2.30, 0.737), (11.3, 12.9)),
    ("IV", "launchable"): ("dp16 * 1dx4 * pp1 [auto]", 0.920, (2.67, 0.175), (11.0, 12.1)),
}


@pytest.mark.autopar
@pytest.mark.parametrize("system, space", list(COMPILE_CELLS),
                         ids=[f"{a}-{b}" for a, b in COMPILE_CELLS])
def test_compiled_plan_against_its_launched_step(system, space):
    mk, world, batch = SYSTEMS[system]
    cs = compile_strategy(mk(), GPT, batch, world_size=world, space=SPACES[space])
    fwd_bwd, step, peak = launched_step(mk(), GPT, batch, cs.config, world_size=world)
    assert (cs.candidate.describe(), _sig3(cs.score.step_seconds / step),
            (_sig3(fwd_bwd), _sig3(step - fwd_bwd)),
            (_sig3(cs.score.memory_bytes / 1e9), _sig3(peak / 1e9))
            ) == COMPILE_CELLS[system, space]


#: (algorithm, W) -> projected ÷ direct step time (ROADMAP item 16(a)): the
#: item-8 stack as DDP on System III, 8 rows per rank: ``launched_program``
#: captured at 16 ranks and launched with ``project.target_world = W``, over
#: ``launched_step``'s whole step at W.
#: Every cell under-predicts, more so the wider the projection.  The 1024
#: cells run in the slow lane: 2.1-2.6 s each on a 2-vCPU host, most of it
#: the direct run's first world price (10.1-11.6 s when that price searched
#: every member pair, before the route rows of DESIGN §4ad).
SCALE_CELLS = {
    ("ring", 64): 0.988, ("ring", 256): 0.968, ("ring", 1024): 0.947,
    ("hierarchical", 64): 0.989, ("hierarchical", 256): 0.967, ("hierarchical", 1024): 0.934,
    ("auto", 64): 0.963, ("auto", 256): 0.937, ("auto", 1024): 0.921,
}


@pytest.mark.projection
@pytest.mark.parametrize("algorithm, world", [
    pytest.param(a, w, marks=[pytest.mark.slow] if w == 1024 else [])
    for a, w in SCALE_CELLS], ids=[f"{a}-{w}" for a, w in SCALE_CELLS])
def test_projection_against_the_direct_run_it_predicts(algorithm, world):
    comm = dict(algorithm=algorithm)
    projected = repro.launch(dict(comm=comm, project=dict(mode="project", target_world=world)),
                             system_iii(n_nodes=4), launched_program(GPT, 8 * 16), world_size=16,
                             materialize=False).step_time
    direct = launched_step(system_iii(n_nodes=world // 4), GPT, 8 * world, dict(comm=comm),
                           world_size=world)[1]
    assert _sig3(projected / direct) == SCALE_CELLS[algorithm, world]
