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
"""

import pytest

from repro.autopar import Workload, score_candidate
from repro.autopar.compiler import simulate_candidate
from repro.autopar.search import StrategyCandidate
from repro.cluster import system_iii, uniform_cluster
from repro.parallel.pipeline import GPipeSchedule, OneFOneBSchedule
from repro.parallel.pipeline.schedule import bubble_fraction
from repro.runtime import SpmdRuntime
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
