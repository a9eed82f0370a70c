"""The tensor-parallel serving engine on the simulated SPMD substrate.

Every rank of the runtime is one member of a single TP replica with one
continuous-batching scheduler, one set of block tables and one request
stream (:class:`_Replica`, built per attempt).  :class:`ServeEngine`
drives it without rank threads (``SpmdRuntime.drive``), in one loop over
turns: the replica applies the last step and plans the next once; every
rank's clock is charged the step priced on its own device, so stragglers
and heterogeneous devices still differ per rank; and the step's fused
all-reduce of activations is one round of the world group
(``ProcessGroup.drive_round``), so the comm cost model, crash checks,
glitch retries, spans, sanitizer and counters apply as to any round.
The blocking round syncs every clock: the next turn is planned at its end.

Step cost is the max of a compute term (``2 * params / tp`` FLOPs per
token through ``Device.compute_seconds``) and a memory term (one weight
read per step plus the KV context read at ``ModelSpec.hbm_bandwidth``).
The weight read amortizes over the batch — that is the continuous
batching win the goodput curves show.

Fault tolerance: a :class:`RankFailure` or :class:`CollectiveTimeout`
ends the attempt; :meth:`ServeEngine.run` records a typed
:class:`FailureEvent`, charges ``recovery_seconds`` of downtime to every
clock and rebuilds the replica from the completion records — written
only for requests ended by a step whose all-reduce completed, in batches
whose outputs are drawn together, and for the rest when the attempt ends
— so in-flight requests replay from scratch and rank loss shows up in the
report as a p99/goodput hit, not a crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.device import DeviceOutOfMemoryError, Storage
from repro.comm.communicator import all_reduce_finalize
from repro.comm.payload import SpecArray
from repro.runtime.errors import (
    CollectiveTimeout, RankFailure, RemoteRankError,
)
from repro.serve.kvcache import BlockPool
from repro.serve.request import FINISHED, Request, RequestRecord, draw_outputs
from repro.serve.scheduler import BatchPlan, ContinuousBatchingScheduler
from repro.serve.traffic import FailureEvent, TrafficReport

_KV_TAG = "kv_cache"
_SUM = {"reduce_op": "sum"}
#: finished requests a replica holds before it writes their records: one
#: output draw per this many requests, and no attempt's worth held at once
_RECORD_BATCH = 256


@dataclass(frozen=True)
class ModelSpec:
    """The decoder model being served, as the cost model sees it."""

    n_layers: int = 4
    hidden: int = 1024
    n_heads: int = 16
    vocab: int = 50257
    bytes_per_elem: int = 2
    #: serving-side device memory bandwidth (bytes/s); the cluster's
    #: Device models FLOPs only, and decode is bandwidth-bound
    hbm_bandwidth: float = 1.5e12

    def __post_init__(self) -> None:
        for name in ("n_layers", "hidden", "n_heads"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.hidden % self.n_heads != 0:
            raise ValueError(
                f"hidden {self.hidden} not divisible by n_heads {self.n_heads}")

    @property
    def params(self) -> int:
        """Transformer decoder weights, the standard 12·L·H² estimate."""
        return 12 * self.n_layers * self.hidden * self.hidden

    def kv_bytes_per_token(self, tp: int) -> int:
        """K+V across all layers, sharded over tensor-parallel ranks."""
        return 2 * self.n_layers * self.hidden * self.bytes_per_elem // tp

    def wire_elems_per_token(self) -> int:
        """Activation elements all-reduced per token per step (the two
        Megatron row-parallel reductions per layer, fused)."""
        return 2 * self.n_layers * self.hidden

    def step_pricer(self, device: Any, tp: int
                    ) -> Callable[[int, int], float]:
        """``price(new_tokens, context_tokens)`` with everything constant
        over a serving run (weights, KV bytes per token) folded once, and
        the compute term asked of ``device`` once per distinct batch size
        (at most ``max_batch_tokens`` of them)."""
        flops_per_token = 2.0 * self.params / tp
        weight_bytes = self.params * self.bytes_per_elem / tp
        kv_bytes_per_token = self.kv_bytes_per_token(tp)
        hbm_bandwidth = self.hbm_bandwidth
        compute_seconds = device.compute_seconds
        compute: Dict[int, float] = {}

        def price(new_tokens: int, context_tokens: int) -> float:
            if new_tokens <= 0:
                return 0.0
            t_compute = compute.get(new_tokens)
            if t_compute is None:
                t_compute = compute[new_tokens] = compute_seconds(
                    flops_per_token * new_tokens, "float16")
            kv_bytes = context_tokens * kv_bytes_per_token
            t_memory = (weight_bytes + kv_bytes) / hbm_bandwidth
            return max(t_compute, t_memory)

        return price


class _Replica:
    """One attempt's replica: the scheduler, with its block tables and
    requests, and the step in flight."""

    def __init__(self, engine: "ServeEngine", kv_blocks: int,
                 records: Dict[int, RequestRecord]) -> None:
        self.pool = BlockPool(engine.block_size, kv_blocks)
        self.sched = ContinuousBatchingScheduler(
            self.pool, engine.max_batch_tokens,
            prefill_chunk=engine.prefill_chunk, gen_seed=engine.gen_seed,
            vocab=engine.model.vocab)
        self.traffic = engine.traffic
        self.records = records
        #: requests an applied step finished or failed, in that order, whose
        #: records are not written yet (``write_records``)
        self.done: List[Request] = []
        self.tracer = getattr(engine.runtime, "tracer", None)
        for req in sorted(self.traffic.outstanding(records),
                          key=attrgetter("arrival", "req_id")):
            self.sched.submit(req)
        #: the step in flight (planned and priced, not yet applied) and the
        #: time it was planned at
        self._plan: Optional[BatchPlan] = None
        self._planned_at = 0.0

    def advance(self, now: float) -> Optional[BatchPlan]:
        """Apply the step in flight at ``now`` (the time its all-reduce
        completed), record what it finished, then plan the next step —
        ``None`` when there is nothing to run at ``now``."""
        sched, plan = self.sched, self._plan
        if plan is not None:
            finished, prefilled = sched.apply(plan, now)
            if self.tracer is not None:
                self._emit_spans(plan, finished, prefilled, now)
            done = self.done
            for req in plan.failed + finished:
                done.append(req)
                follow_up = self.traffic.next_request(req, now)
                if follow_up is not None:
                    sched.submit(follow_up)
            if len(done) >= _RECORD_BATCH:
                self.write_records()

        plan = sched.step(now)
        if not (plan.prefill or plan.decode or plan.failed or plan.preempted):
            self._plan = None
            return None
        self._plan, self._planned_at = plan, now
        return plan

    def write_records(self) -> None:
        """Record every request in ``done``, the finished ones' outputs
        drawn together (one jump-ahead), and empty it.  Called every
        ``_RECORD_BATCH`` requests and when the attempt ends."""
        draw_outputs([r for r in self.done if r.state == FINISHED],
                     self.sched.vocab)
        for req in self.done:
            self.records[req.req_id] = req.record()
        self.done.clear()

    def _emit_spans(self, plan: BatchPlan, finished: List[Request],
                    prefilled: List[Request], t: float) -> None:
        """Per-request ``serve`` spans, all on lane 0 (the replica's)."""
        tracer, now = self.tracer, self._planned_at
        for req in plan.admitted:
            if req.preemptions > 0 and req.t_last_preempt is not None:
                tracer.annotate(0, "serve", f"preempted/req{req.req_id}",
                                req.t_last_preempt, now,
                                preemptions=req.preemptions)
            else:
                tracer.annotate(0, "serve", f"queued/req{req.req_id}",
                                req.arrival, now)
        for req in prefilled:
            tracer.annotate(0, "serve", f"prefill/req{req.req_id}",
                            req.t_admitted, t, tokens=req.prompt_tokens)
        for req in finished:
            t0 = req.t_prefill_done if req.t_prefill_done is not None else now
            tracer.annotate(0, "serve", f"decode/req{req.req_id}",
                            t0, t, tokens=req.max_new_tokens)


class ServeEngine:
    """Drives one TP replica of ``model`` through ``traffic``."""

    def __init__(self, runtime: Any, model: ModelSpec, traffic: Any, *,
                 block_size: int = 16,
                 kv_blocks: Optional[int] = None,
                 kv_fraction: float = 0.3,
                 max_batch_tokens: int = 256,
                 prefill_chunk: int = 64,
                 recovery_seconds: float = 0.5,
                 max_recoveries: int = 16,
                 gen_seed: Optional[int] = None) -> None:
        self.runtime = runtime
        self.model = model
        self.traffic = traffic
        self.block_size = int(block_size)
        self.kv_blocks = kv_blocks if kv_blocks is None else int(kv_blocks)
        self.kv_fraction = float(kv_fraction)
        self.max_batch_tokens = int(max_batch_tokens)
        self.prefill_chunk = int(prefill_chunk)
        self.recovery_seconds = float(recovery_seconds)
        self.max_recoveries = int(max_recoveries)
        seed = getattr(traffic, "seed", 0) if gen_seed is None else gen_seed
        self.gen_seed = int(seed)
        # serve_traffic() reaches here without Config's field table
        if not 0.0 < self.kv_fraction <= 1.0:
            raise ValueError(
                f"kv_fraction must be in (0, 1], got {self.kv_fraction}")
        if not 0.0 <= self.recovery_seconds < math.inf:
            raise ValueError("recovery_seconds must be finite and >= 0, "
                             f"got {self.recovery_seconds}")
        if self.max_recoveries < 0:
            raise ValueError(
                f"max_recoveries must be >= 0, got {self.max_recoveries}")

    # -- driver ----------------------------------------------------------

    def run(self) -> TrafficReport:
        runtime = self.runtime
        records: Dict[int, RequestRecord] = {}
        failures: List[FailureEvent] = []
        restarts = 0
        tp = runtime.world_size
        kv_blocks = self._num_blocks(tp)
        kv_peak_blocks = 0
        # time starts at zero once; a restart resumes where recovery left it
        runtime.reset_clocks()
        while True:
            # everything the attempt shares is rebuilt from the records,
            # so a restart carries nothing over from the aborted replica
            replica = _Replica(self, kv_blocks, records)
            try:
                runtime.drive(partial(self._attempt, replica))
                break
            except RemoteRankError as err:
                if not isinstance(err.cause, (RankFailure, CollectiveTimeout)):
                    raise
                if restarts >= self.max_recoveries:
                    raise
                restarts += 1
                t_fail = runtime.max_time()
                failures.append(FailureEvent(
                    t=t_fail, rank=err.rank, kind=type(err.cause).__name__))
                # replica down while the failed rank is replaced: every
                # survivor idles, and the requeued work restarts after it
                for clock in runtime.clocks:
                    clock.sync_to(t_fail + self.recovery_seconds, "wait")
            finally:
                kv_peak_blocks = max(kv_peak_blocks, replica.pool.peak_used)
                replica.write_records()
        return TrafficReport(
            records,
            traffic=self.traffic.describe(),
            world=tp,
            makespan=runtime.max_time(),
            restarts=restarts,
            failures=failures,
            kv_blocks=kv_blocks,
            kv_peak_blocks=kv_peak_blocks,
        )

    def _num_blocks(self, tp: int) -> int:
        """The replica's KV pool size: what the tightest rank can hold."""
        if self.kv_blocks is not None:
            return self.kv_blocks
        bytes_per_block = (
            self.model.kv_bytes_per_token(tp) * self.block_size)
        free = min(self.runtime.cluster.device(rank).memory.free
                   for rank in range(tp))
        budget = int(free * self.kv_fraction)
        blocks = budget // max(1, bytes_per_block)
        if blocks < 1:
            raise ValueError(
                "kv_fraction leaves no room for a single KV block "
                f"(budget={budget}B, block={bytes_per_block}B)")
        return blocks

    def _attempt(self, replica: _Replica) -> None:
        """The replica's turns until it drains, with the KV arena its block
        tables index held on every rank's own device."""
        runtime, model = self.runtime, self.model
        tp, clocks = runtime.world_size, runtime.clocks
        devices = [runtime.cluster.device(rank) for rank in range(tp)]
        arena_bytes = (replica.pool.num_blocks * self.block_size
                       * model.kv_bytes_per_token(tp))
        held = []
        try:
            for rank, device in enumerate(devices):
                try:
                    held.append(Storage(device, arena_bytes, _KV_TAG))
                except DeviceOutOfMemoryError as exc:
                    runtime.signal_failure(rank, exc)
                    raise
            prices = [model.step_pricer(device, tp) for device in devices]
            group = runtime.world_group if tp > 1 else None
            finalize = partial(all_reduce_finalize, group, "sum")
            wire_elems = model.wire_elems_per_token()
            #: new_tokens -> the step's all-reduce payloads, one per member
            #: (a SpecArray is immutable, so every step of a size shares it)
            payloads: Dict[int, List[SpecArray]] = {}
            while True:
                now = clocks[0].time  # the last round synced every clock
                plan = replica.advance(now)
                if plan is None:
                    wake = replica.sched.next_arrival()
                    if wake is None:
                        return  # drained
                    for clock in clocks:
                        clock.sync_to(max(wake, now), "wait")
                elif plan.new_tokens > 0:
                    new_tokens = plan.new_tokens
                    for clock, price in zip(clocks, prices):
                        clock.advance(price(new_tokens, plan.context_tokens),
                                      "compute")
                    if group is not None:
                        xs = payloads.get(new_tokens)
                        if xs is None:
                            xs = payloads[new_tokens] = [SpecArray(
                                (new_tokens, wire_elems), "float16")] * tp
                        group.drive_round(xs, finalize, "all_reduce", _SUM)
        finally:
            for arena in held:
                arena.release()


def serve_traffic(model: ModelSpec, traffic: Any, *,
                  cluster: Any = None, world_size: int = 2,
                  runtime: Any = None, fault_plan: Any = None,
                  tracer: Any = None,
                  **engine_kwargs: Any) -> TrafficReport:
    """Serve ``traffic`` on a TP replica and return the traffic report.

    Builds a uniform cluster/runtime when none is given; any
    ``ServeEngine`` knob (``kv_blocks``, ``max_batch_tokens``, ...)
    passes through ``engine_kwargs``.
    """
    if runtime is None:
        from repro.cluster import uniform_cluster
        from repro.runtime.spmd import SpmdRuntime

        if cluster is None:
            cluster = uniform_cluster(world_size)
        runtime = SpmdRuntime(
            cluster, world_size, fault_plan=fault_plan, tracer=tracer)
    engine = ServeEngine(runtime, model, traffic, **engine_kwargs)
    return engine.run()
