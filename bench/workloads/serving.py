"""Serving through ``serve_traffic`` on a TP-2 replica: an open-loop rate
sweep with a roomy KV pool (admission and queueing decide latency) and a
closed loop with a tight one (preemption and replay decide goodput).

Open loop models independent users: Poisson arrivals at a fixed offered
rate, latency timed from each request's scheduled arrival.  Closed loop
models 64 callers that each wait for their answer before asking again.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster import uniform_cluster
from repro.runtime import SpmdRuntime
from repro.serve import (
    ClosedLoopTraffic,
    ModelSpec,
    OpenLoopTraffic,
    TrafficReport,
    serve_traffic,
)
from repro.trace import Tracer

from harness import NullSpans
from workloads import IterResult, Workload
from workloads import common

TP = 2
MODEL = ModelSpec(n_layers=4, hidden=1024, n_heads=16)
LENGTHS = dict(prompt_tokens=(16, 64), max_new_tokens=(8, 32))
ENGINE = dict(max_batch_tokens=256, block_size=16)
N_REQUESTS = 2000  # p99 then has 20 samples beyond it
ROOMY_KV_BLOCKS, TIGHT_KV_BLOCKS = 256, 48
#: enough for 64 requests of the longest prompt + output (96 tokens, 6
#: blocks each) at once: the reference run can never preempt
REFERENCE_KV_BLOCKS = 64 * 6

#: the latency limits of ``sim_max_rate_slo``
TTFT_LIMIT_S, TOKEN_GAP_LIMIT_S = 1e-3, 0.3e-3
SLO_SHARE, BACKLOG_SLACK = 0.99, 1.05


def _serve(traffic: Any, kv_blocks: int, spans: Any,
           tracer: Optional[Tracer]) -> Tuple[TrafficReport, SpmdRuntime]:
    rt = SpmdRuntime(uniform_cluster(TP), TP, tracer=tracer)
    with spans.span("serve_traffic", "serve"):
        report = serve_traffic(
            MODEL, traffic, runtime=rt, kv_blocks=kv_blocks, **ENGINE)
    return report, rt


def _percentile(values: List[float], q: float) -> float:
    """Nearest rank, as ``TrafficReport`` computes its own percentiles."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def _all_completed(report: TrafficReport) -> bool:
    return (report.n_issued == N_REQUESTS
            and report.n_completed == N_REQUESTS and report.n_failed == 0)


def _sim_latency(report: TrafficReport) -> Dict[str, float]:
    return {
        "sim_goodput_tok_s": report.goodput_tokens_per_sec,
        "sim_ttft_p50_s": report.p50_ttft,
        "sim_ttft_p99_s": report.p99_ttft,
        "sim_tpot_p99_s": report.p99_token_latency,
    }


def _serve_layers(report: TrafficReport, rt: SpmdRuntime,
                  tracer: Tracer) -> Dict[str, float]:
    """The serve layer's own numbers, from the report, the replica's
    ``CommCounters`` and the per-request ``serve`` trace spans.

    Every engine step fuses its activations into one world all-reduce of
    ``new_tokens x wire_elems_per_token`` elements, and a ring all-reduce
    of S elements over p ranks counts ``2(p-1)S`` wire elements (Table 1),
    so steps and tokens processed read straight off the counters."""
    counters = rt.world_group.counters
    steps = counters.calls_total
    processed = counters.elements_total // (
        2 * (TP - 1) * MODEL.wire_elems_per_token())
    done = [r for r in report.records.values() if r.completed]
    # the first output token falls out of the prefill pass
    useful = sum(r.prompt_tokens + len(r.output) - 1 for r in done)
    serve_spans = tracer.spans(cat="serve")
    waits = [s.duration for s in serve_spans if s.name.startswith("queued/")]
    prefilled = sum(s.args["tokens"] for s in serve_spans
                    if s.name.startswith("prefill/"))
    return {
        "serve.steps": steps,
        "serve.mean_batch_tokens": processed / steps,
        "serve.preemptions": report.preemptions,
        "serve.recomputed_token_share": 1.0 - useful / processed,
        "serve.queue_wait_p50_s": _percentile(waits, 50),
        "serve.queue_wait_p99_s": _percentile(waits, 99),
        "serve.prefill_share": prefilled / processed,
    }


def _observed(res: IterResult, report: TrafficReport, rt: SpmdRuntime,
              tracer: Tracer) -> None:
    res.layers.update(_serve_layers(report, rt, tracer))
    res.layers.update(common.comm_metrics(rt, [range(TP)]))
    res.layers.update(common.runtime_metrics(rt))
    res.layers["trace.spans"] = len(tracer.spans())
    res.layers["cluster.peak_device_bytes"] = common.peak_device_bytes(
        rt.cluster, TP)
    res.program_trace = common.program_events(tracer)


class ServeOpenSweep(Workload):
    """Four fixed offered rates bracketing the knee (~10-12k req/s);
    latency metrics are read at 8000 req/s."""

    iterations = 6
    quick_iterations = 2

    RATES = (4000.0, 8000.0, 10000.0, 12000.0)
    REPORTED_RATE = 8000.0

    def _meets_slo(self, report: TrafficReport) -> bool:
        records = report.records.values()
        within = sum(
            1 for r in records
            if r.completed and r.ttft <= TTFT_LIMIT_S
            and r.token_latency <= TOKEN_GAP_LIMIT_S)
        offered_duration = max(r.arrival for r in records)
        return (within >= SLO_SHARE * N_REQUESTS
                and report.makespan <= BACKLOG_SLACK * offered_duration)

    def iterate(self, spans: Any, observe: bool) -> IterResult:
        sim: Dict[str, Any] = {}
        checks = []
        best_rate = 0.0
        steps_total = 0
        per_rate = []
        res = IterResult(sim=sim, checks=checks)
        for i, rate in enumerate(self.RATES):
            tracer = Tracer() if observe else None
            traffic = OpenLoopTraffic(
                rate=rate, n_requests=N_REQUESTS,
                seed=self.seed * 16 + i, **LENGTHS)
            report, rt = _serve(traffic, ROOMY_KV_BLOCKS, spans, tracer)
            checks.append((f"all_completed/{rate:g}", _all_completed(report)))
            checks.append((f"buffer_pool_clean/{rate:g}",
                           common.pool_is_clean(rt)))
            if self._meets_slo(report):
                best_rate = max(best_rate, rate)
            steps_total += rt.world_group.counters.calls_total
            per_rate.append((rate, report.n_issued, report.n_completed,
                             report.n_failed, report.goodput_tokens_per_sec,
                             report.p99_ttft))
            if rate == self.REPORTED_RATE:
                sim.update(_sim_latency(report))
                if observe:
                    _observed(res, report, rt, tracer)
        sim["sim_max_rate_slo"] = best_rate
        sim["_per_rate"] = tuple(per_rate)
        res.layers["_steps_per_iter"] = steps_total
        return res


class ServeClosedTightKv(Workload):
    """64 zero-think clients against 48 KV blocks: ~560 preemptions, each
    discarding and replaying a request's progress."""

    iterations = 12
    quick_iterations = 2

    CLIENTS = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        roomy, _ = _serve(self._traffic(), REFERENCE_KV_BLOCKS, NullSpans(),
                          None)
        self.roomy_outputs = {
            rid: rec.output for rid, rec in roomy.records.items()}
        self.setup_checks = [
            ("roomy_run_never_preempts", roomy.preemptions == 0)]

    def _traffic(self) -> ClosedLoopTraffic:
        return ClosedLoopTraffic(
            clients=self.CLIENTS, n_requests=N_REQUESTS, seed=self.seed,
            **LENGTHS)

    def iterate(self, spans: Any, observe: bool) -> IterResult:
        tracer = Tracer() if observe else None
        report, rt = _serve(self._traffic(), TIGHT_KV_BLOCKS, spans, tracer)
        outputs = {rid: rec.output for rid, rec in report.records.items()}
        sim = _sim_latency(report)
        del sim["sim_ttft_p50_s"]
        sim["_requests"] = (report.n_issued, report.n_completed,
                            report.n_failed, report.preemptions)
        res = IterResult(
            sim=sim,
            checks=[
                ("all_completed", _all_completed(report)),
                ("buffer_pool_clean", common.pool_is_clean(rt)),
                ("tight_outputs_equal_roomy", outputs == self.roomy_outputs),
            ],
        )
        res.layers["_steps_per_iter"] = rt.world_group.counters.calls_total
        if observe:
            _observed(res, report, rt, tracer)
        return res

