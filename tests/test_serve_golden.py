"""Serving behaviour frozen against ``tests/serve_golden.json``.

The golden holds, for four seeded runs, the sha256 of the traffic report
(every record, latency and counter; the ``"kv"`` section added after the
golden was cut is excluded) and every rank's final simulated clock.  It
was generated at commit ``fd43f9f``, where each TP rank still ran its own
scheduler, so equality here means the one-scheduler-per-replica engine
reproduces that design bit for bit — including which completion records
survive a rank kill.

Regenerate (only when simulated serving behaviour is *meant* to change):
``PYTHONPATH=src python tests/test_serve_golden.py``
"""

import hashlib
import json
import sys
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
}


def _run(name):
    tp, traffic, kwargs, plan = CASES[name]
    rt = SpmdRuntime(uniform_cluster(tp), tp, fault_plan=plan)
    report = serve_traffic(MODEL, traffic, runtime=rt, **ENGINE, **kwargs)
    body = {k: v for k, v in report.to_dict().items() if k != "kv"}
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()
    return report, {
        "report_sha256": digest,
        "clocks": [c.time for c in rt.clocks],
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_per_rank_scheduler_golden(name):
    report, got = _run(name)
    assert got == json.loads(GOLDEN.read_text())[name]
    if name == "closed_tightkv_tp2":
        assert report.preemptions > 100, "golden no longer exercises replay"
    if name == "open_tp2_rank_kill":
        assert report.restarts == 1 and report.n_completed == 400


def test_first_arriver_race_leaves_the_schedule_alone():
    """Four rank threads on fewer cores, switching every microsecond:
    whichever rank advances each turn, a doubled or lost advance would
    change the report."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [_run("closed_tp4")[1] for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [json.loads(GOLDEN.read_text())["closed_tp4"]] * 3


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: _run(name)[1] for name in sorted(CASES)}, indent=2) + "\n")
