"""Serving behaviour frozen against ``tests/serve_golden.json``.

The golden holds, for six seeded runs, the sha256 of the traffic report
(every record, latency and counter; the ``"kv"`` section added after the
golden was cut is excluded) and every rank's final simulated clock.  The
four fault-free and rank-kill runs were generated at commit ``fd43f9f``,
where each TP rank still ran its own scheduler; the straggler + glitch and
degraded-link runs at ``1dd9c39``, where rank threads still agreed on one
schedule through a locked step log.  Equality here means the thread-free
replica reproduces both designs bit for bit — including which completion
records survive a rank kill.

Regenerate (only when simulated serving behaviour is *meant* to change):
``PYTHONPATH=src python tests/test_serve_golden.py``
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster import uniform_cluster
from repro.faults import FaultPlan
from repro.runtime import SpmdRuntime
from repro.serve import (
    ClosedLoopTraffic,
    ModelSpec,
    OpenLoopTraffic,
    serve_traffic,
)
from repro.trace import Tracer

pytestmark = pytest.mark.serving

GOLDEN = Path(__file__).with_name("serve_golden.json")

MODEL = ModelSpec(n_layers=4, hidden=1024, n_heads=16)
LENGTHS = dict(prompt_tokens=(16, 64), max_new_tokens=(8, 32))
ENGINE = dict(max_batch_tokens=256, block_size=16)


def _closed(n, seed):
    return ClosedLoopTraffic(clients=64, n_requests=n, seed=seed, **LENGTHS)


#: name -> (tp, traffic, engine kwargs, fault plan)
CASES = {
    "open_tp2_10k": (
        2, OpenLoopTraffic(rate=10000.0, n_requests=800, seed=21, **LENGTHS),
        dict(kv_blocks=256), None),
    "closed_tightkv_tp2": (2, _closed(800, 5), dict(kv_blocks=48), None),
    "closed_tp4": (4, _closed(400, 9), dict(kv_blocks=256), None),
    # rank 1 dies about a third of the way through the fault-free makespan
    "open_tp2_rank_kill": (
        2, OpenLoopTraffic(rate=8000.0, n_requests=400, seed=33, **LENGTHS),
        dict(kv_blocks=256, recovery_seconds=0.002),
        FaultPlan(seed=1).crash(1, at_time=0.017)),
    # rank 1 computes 1.7x slower for a window while one all-reduce in
    # five needs a retransmission: per-rank clocks differ between barriers
    "closed_tp4_straggler_glitch": (
        4, _closed(400, 9), dict(kv_blocks=256),
        FaultPlan(seed=4)
        .straggler(1, 1.7, start=0.002, end=0.01)
        .glitch(op="all_reduce", attempts=1, p=0.2, max_glitches=None)),
    # the topology-aware ring orders around the slow 0-1 link, so this run
    # must read exactly closed_tp4's digest and clocks
    "closed_tp4_degraded_link": (
        4, _closed(400, 9), dict(kv_blocks=256),
        FaultPlan(seed=5).degrade_link(0, 1, 0.25)),
}


def _run(name, **observers):
    tp, traffic, kwargs, plan = CASES[name]
    rt = SpmdRuntime(uniform_cluster(tp), tp, fault_plan=plan, **observers)
    report = serve_traffic(MODEL, traffic, runtime=rt, **ENGINE, **kwargs)
    body = {k: v for k, v in report.to_dict().items() if k != "kv"}
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()
    return report, rt, {
        "report_sha256": digest,
        "clocks": [c.time for c in rt.clocks],
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_per_rank_scheduler_golden(name):
    report, _, got = _run(name)
    golden = json.loads(GOLDEN.read_text())
    assert got == golden[name]
    if name == "closed_tightkv_tp2":
        assert report.preemptions > 100, "golden no longer exercises replay"
    if name == "open_tp2_rank_kill":
        assert report.restarts == 1 and report.n_completed == 400
    if name == "closed_tp4_straggler_glitch":
        assert report.restarts == 0 and report.makespan > 0.01
    if name == "closed_tp4_degraded_link":
        assert got == golden["closed_tp4"]


@pytest.mark.sanitize
@pytest.mark.parametrize("observer", ["tracer", "sanitize"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_observers_change_nothing(name, observer):
    """A traced or sanitized replica reads the bare run's report, clocks
    and round count, and the sanitizer checks every round of the attempt
    that drained the traffic."""
    _, bare_rt, _ = _run(name)
    observers = ({"tracer": Tracer()} if observer == "tracer"
                 else {"sanitize": True})
    report, rt, got = _run(name, **observers)
    assert got == json.loads(GOLDEN.read_text())[name]
    calls = rt.world_group.counters.calls_total
    assert calls == bare_rt.world_group.counters.calls_total
    if observer == "sanitize":
        san = rt.sanitizer
        assert san.mismatches == san.desyncs == 0
        if report.restarts == 0:
            assert san.rounds_checked == calls
        else:  # the counters span every attempt, the sanitizer the last
            assert 0 < san.rounds_checked < calls


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: _run(name)[2] for name in sorted(CASES)}, indent=2) + "\n")
