"""The ``serving`` lane: invariants of the inference-serving engine.

Core is hypothesis property testing over the paged KV cache and the
continuous-batching scheduler — both are single-threaded and clockless,
so random admission/preemption schedules run thousands of steps without
touching the SPMD substrate:

- no KV block is ever double-owned or leaked, across any schedule;
- a batch never exceeds the configured token budget;
- preempted requests complete with output bitwise identical to an
  uninterrupted run;
- scheduling (and thus the whole traffic report) is bitwise
  deterministic per seed.

Engine-level tests then run the real tensor-parallel decode loop on the
simulated runtime (priced collectives, traced spans, launch wiring), and
the chaos section kills a TP rank mid-request to check typed failure,
requeue and the p99/goodput SLO hit in the report.
"""

import collections
import inspect
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cluster import uniform_cluster
from repro.cluster.device import DeviceOutOfMemoryError, Storage
from repro.faults import FaultPlan
from repro.runtime import SpmdRuntime
from repro.runtime.errors import (
    CollectiveTimeout, RankFailure, RemoteRankError,
)
from repro.serve import (
    BlockPool,
    CacheExhausted,
    ClosedLoopTraffic,
    ContinuousBatchingScheduler,
    ModelSpec,
    OpenLoopTraffic,
    Request,
    RequestRecord,
    RequestTooLarge,
    TrafficReport,
    serve_traffic,
)
from repro.serve.request import draw_outputs
from repro.serve.traffic import _percentile
from repro.trace import Tracer

pytestmark = pytest.mark.serving

fast = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


SMALL_MODEL = ModelSpec(n_layers=2, hidden=256, n_heads=4, vocab=997)


def _open(rate=2000.0, n=24, seed=7, prompt=(8, 24), new=(4, 12)):
    return OpenLoopTraffic(rate=rate, n_requests=n, prompt_tokens=prompt,
                           max_new_tokens=new, seed=seed)


# ---------------------------------------------------------------------------
# BlockPool: the paged KV-cache allocator
# ---------------------------------------------------------------------------


class TestBlockPool:
    def test_partition_invariant_basics(self):
        pool = BlockPool(block_size=4, num_blocks=8)
        assert pool.appended(1, 9) == 3  # ceil(9/4)
        assert pool.appended(1, 10) == 0  # same block covers it
        assert pool.appended(1, 13) == 1
        assert pool.table(1) == (0, 1, 2, 3)
        pool.check_consistent()
        assert pool.free_blocks == 4
        assert pool.free_sequence(1) == 4
        assert pool.free_blocks == 8
        pool.check_consistent()

    def test_exhaustion_is_all_or_nothing(self):
        pool = BlockPool(block_size=2, num_blocks=4)
        pool.appended(1, 6)  # 3 blocks
        with pytest.raises(CacheExhausted):
            pool.appended(2, 6)  # needs 3, only 1 free
        assert pool.table(2) == ()  # nothing allocated on failure
        assert pool.free_blocks == 1
        pool.check_consistent()

    def test_request_too_large_is_typed(self):
        pool = BlockPool(block_size=2, num_blocks=4)
        with pytest.raises(RequestTooLarge):
            pool.appended(9, 100)
        pool.check_consistent()

    @given(
        block_size=st.integers(1, 6),
        num_blocks=st.integers(2, 16),
        ops=st.lists(
            st.tuples(st.integers(0, 5),        # sequence id
                      st.integers(0, 40),       # target total tokens
                      st.booleans()),           # free instead of grow
            min_size=1, max_size=60),
    )
    @fast
    def test_no_block_double_owned_or_leaked(self, block_size, num_blocks,
                                             ops):
        """Free list + tables partition the pool across any op schedule,
        and the pool hands out the ids a stack of every block would: the
        same tables and ``CacheExhausted`` points as a reference that
        starts from ``[num_blocks - 1, ..., 0]`` and pops its end."""
        pool = BlockPool(block_size=block_size, num_blocks=num_blocks)
        stack, tables = list(range(num_blocks - 1, -1, -1)), {}
        for seq, tokens, do_free in ops:
            table = tables.pop(seq, [])
            if do_free:
                assert pool.free_sequence(seq) == len(table)
                stack += table
            else:
                need = pool.blocks_for(tokens)
                grow = need - len(table)
                try:
                    pool.appended(seq, tokens)
                    assert need <= num_blocks and grow <= len(stack)
                    table += [stack.pop() for _ in range(grow)]
                except CacheExhausted:
                    assert len(stack) < grow <= num_blocks - len(table)
                except RequestTooLarge:
                    assert need > num_blocks
                tables[seq] = table
            pool.check_consistent()
            assert {s: list(pool.table(s)) for s in pool.sequences()} == {
                s: t for s, t in tables.items() if t}
            assert pool.free_blocks == len(stack)
        for seq in list(pool.sequences()):
            pool.free_sequence(seq)
        pool.check_consistent()
        assert pool.free_blocks == num_blocks

    def test_building_a_huge_pool_allocates_nothing_per_block(self):
        tracemalloc.start()
        pool = BlockPool(block_size=16, num_blocks=10**9)
        grown = pool.appended(1, 40)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert grown == 3 and pool.table(1) == (0, 1, 2) and peak < 1 << 16


# ---------------------------------------------------------------------------
# Continuous-batching scheduler: property tests over random schedules
# ---------------------------------------------------------------------------

request_sets = st.lists(
    st.tuples(st.integers(1, 24),                        # prompt tokens
              st.integers(1, 8),                         # max new tokens
              st.floats(0, 40, allow_nan=False)),        # arrival
    min_size=1, max_size=12,
)


def _check_kv_slots(sched, requests):
    """``kv_slots`` is the request's allocated KV capacity: whole blocks
    while active, nothing otherwise (queued, preempted, finished, failed)."""
    pool = sched.pool
    active = {id(r) for r in sched.active}
    for req in requests:
        held = len(pool.table(req.req_id)) * pool.block_size
        if id(req) in active:
            assert req.kv_slots == held, (req, req.kv_slots, held)
        else:
            assert req.kv_slots == 0 and held == 0, (req, req.kv_slots, held)


def _check_prefilling(sched):
    """The prefill pass's index is the PREFILL subset of ``active``, in
    its order."""
    assert sched.prefilling == [r for r in sched.active
                                if r.state == "prefill"]


def _check_decoding(sched):
    """The decode pass's index is the DECODE subset of ``active``, in its
    order, and always fits the token budget (a request joins it only when
    its last prefill chunk, planned from the budget the decoders left,
    completes)."""
    assert sched.decoding == [r for r in sched.active if r.state == "decode"]
    assert len(sched.decoding) <= sched.max_batch_tokens


def _chain(req, seed, vocab=997):
    """``req``'s output drawn token by token: ``next_token`` after
    ``start_generation``, on a fresh request of the same identity."""
    ref = Request(req.req_id, req.prompt_tokens, req.max_new_tokens,
                  req.arrival)
    ref.start_generation(seed, vocab)
    return [ref.next_token(vocab) for _ in range(req.max_new_tokens)]


def _drive(requests, *, num_blocks, block_size, budget, chunk, seed=1,
           hits=None):
    """Run a request set to completion single-threaded; returns the
    scheduler plus (finished, failed) request lists, checking the pool
    partition invariant, the token budget and the ``kv_slots`` accounting
    at every step.

    It is also the oracle of the decode path: each step decodes the first
    ``budget`` DECODE requests of ``active`` as it stood before the step,
    less the ones evicted; its context is each decoder's prompt plus the
    tokens it made (counted here, one per plan it was decoded in); and a
    finished request's output, which ``draw_outputs`` draws for all of a
    step's at once, is its chain drawn token by token.
    ``hits`` counts the turns whose decode batch filled the whole budget
    and the evictions, so a caller can show a lane still reaches them."""
    pool = BlockPool(block_size=block_size, num_blocks=num_blocks)
    sched = ContinuousBatchingScheduler(
        pool, budget, prefill_chunk=chunk, gen_seed=seed, vocab=997)
    for spec in requests:
        sched.submit(spec)
    now, steps = 0.0, 0
    finished, failed = [], []
    made = {}  # id(request) -> tokens generated, while decoding
    while not sched.drained:
        running = [r for r in sched.active if r.state == "decode"]
        plan = sched.step(now)
        assert plan.new_tokens <= budget, "token budget exceeded"
        assert plan.new_tokens == len(plan.decode) + sum(
            chunk for _, chunk in plan.prefill), "running count drifted"
        # a preempted request leaves no stale work behind in the plan
        assert all(r.state == "decode" for r in plan.decode)
        assert all(r.state == "prefill" for r, _ in plan.prefill)
        planned = [id(r) for r in plan.decode] + [
            id(r) for r, _ in plan.prefill]
        assert len(planned) == len(set(planned))
        evicted = {id(r) for r in plan.preempted}
        assert plan.decode == [r for r in running[:budget]
                               if id(r) not in evicted]
        context = sum(r.prompt_tokens + made[id(r)] for r in plan.decode)
        context += sum(r.prefill_done + chunk for r, chunk in plan.prefill)
        # a decoder evicted by a later prefill chunk keeps its share
        kept = sum(r.prompt_tokens + made[id(r)] for r in running
                   if id(r) in evicted)
        assert context <= plan.context_tokens <= context + kept
        for r in plan.preempted:
            made.pop(id(r), None)
        if hits is not None:
            hits["full_budget"] += len(plan.decode) == budget
            hits["evicted"] += len(plan.preempted)
        pool.check_consistent()
        _check_kv_slots(sched, requests)
        _check_prefilling(sched)
        _check_decoding(sched)
        if not (plan.prefill or plan.decode or plan.failed
                or plan.preempted):
            nxt = sched.next_arrival()
            assert nxt is not None, "scheduler stuck with empty plan"
            now = max(now, nxt)
            continue
        now += 1.0
        fins, prefilled = sched.apply(plan, now)
        for r in plan.decode:
            made[id(r)] += 1
        for r in prefilled:
            made[id(r)] = 1
        assert all(r.output == [] for r in fins)
        draw_outputs(fins, 997)
        for r in fins:
            assert made.pop(id(r)) == r.max_new_tokens
            assert r.output == _chain(r, seed)
        _check_kv_slots(sched, requests)
        _check_prefilling(sched)
        _check_decoding(sched)
        finished.extend(fins)
        failed.extend(plan.failed)
        steps += 1
        assert steps < 20_000, "scheduler failed to make progress"
    assert pool.used_blocks == 0, "KV blocks leaked after drain"
    pool.check_consistent()
    return sched, finished, failed


@st.composite
def schedule_cases(draw):
    reqs = draw(request_sets)
    return {
        "reqs": reqs,
        "num_blocks": draw(st.integers(2, 12)),
        "block_size": draw(st.integers(1, 6)),
        # budgets of a few tokens: turns whose decoders fill the budget
        "budget": draw(st.integers(1, 4) | st.integers(1, 48)),
        "chunk": draw(st.integers(1, 16)),
    }


@st.composite
def preempt_heavy_cases(draw):
    """Pools of a few blocks under long outputs: most schedules evict."""
    reqs = draw(st.lists(
        st.tuples(st.integers(1, 10), st.integers(6, 12),
                  st.floats(0, 2, allow_nan=False)),
        min_size=4, max_size=12))
    return {
        "reqs": reqs,
        "num_blocks": draw(st.integers(6, 10)),
        "block_size": draw(st.integers(2, 4)),
        # budgets of a few tokens: turns whose decoders fill the budget
        "budget": draw(st.integers(2, 4) | st.integers(8, 32)),
        "chunk": draw(st.integers(1, 8)),
    }


class TestSchedulerProperties:
    @given(case=preempt_heavy_cases())
    @fast
    def test_prefill_index_follows_preemption(self, case):
        """``_drive`` checks ``prefilling`` against ``active`` after every
        ``step`` and ``apply``; here under heavy eviction, where admission,
        completion and ``_preempt`` all move requests in and out of it."""
        reqs = [Request(i, p, n, a)
                for i, (p, n, a) in enumerate(case["reqs"])]
        _, finished, failed = _drive(
            reqs, num_blocks=case["num_blocks"],
            block_size=case["block_size"], budget=case["budget"],
            chunk=case["chunk"])
        assert len(finished) + len(failed) == len(reqs)

    @pytest.mark.parametrize("cases", [schedule_cases, preempt_heavy_cases])
    def test_lane_reaches_full_budget_and_evictions(self, cases):
        """``_drive``'s decode-path oracle speaks only where the generated
        cases go: over a fixed draw of each strategy, some turns must fill
        the whole budget with decoders and some requests must be
        evicted."""
        hits = collections.Counter()

        @given(case=cases())
        @settings(max_examples=25, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        def drive(case):
            reqs = [Request(i, p, n, a)
                    for i, (p, n, a) in enumerate(case["reqs"])]
            _drive(reqs, num_blocks=case["num_blocks"],
                   block_size=case["block_size"], budget=case["budget"],
                   chunk=case["chunk"], hits=hits)

        drive()
        assert hits["full_budget"] > 0 and hits["evicted"] > 0, hits

    @given(case=schedule_cases())
    @fast
    def test_budget_partition_and_drain(self, case):
        """Any admission/preemption schedule drains with no leak and no
        budget overrun; every request terminates exactly once."""
        reqs = [Request(i, p, n, a)
                for i, (p, n, a) in enumerate(case["reqs"])]
        _, finished, failed = _drive(
            reqs, num_blocks=case["num_blocks"],
            block_size=case["block_size"], budget=case["budget"],
            chunk=case["chunk"])
        assert len(finished) + len(failed) == len(reqs)
        assert {r.req_id for r in finished} | {r.req_id for r in failed} \
            == set(range(len(reqs)))
        for r in failed:
            assert r.fail_reason == "RequestTooLarge"
        for r in finished:
            assert len(r.output) == r.max_new_tokens

    @given(case=schedule_cases())
    @fast
    def test_preempted_output_identical_to_uninterrupted(self, case):
        """A tiny cache (heavy preemption) must produce bitwise the same
        outputs as a cache that never evicts."""
        make = lambda: [Request(i, p, n, a)
                        for i, (p, n, a) in enumerate(case["reqs"])]
        _, fin_small, fail_small = _drive(
            make(), num_blocks=case["num_blocks"],
            block_size=case["block_size"], budget=case["budget"],
            chunk=case["chunk"])
        # big enough that nothing is ever evicted
        big = sum(-(-(p + n) // case["block_size"])
                  for p, n, _ in case["reqs"]) + 1
        _, fin_big, _ = _drive(
            make(), num_blocks=big, block_size=case["block_size"],
            budget=case["budget"], chunk=case["chunk"])
        small_out = {r.req_id: r.output for r in fin_small}
        big_out = {r.req_id: r.output
                   for r in fin_big if r.req_id in small_out}
        assert small_out == big_out

    def test_request_needing_every_block_is_admitted(self):
        """Admission's boundary: prompt + output filling the cache to its
        last slot still fits, and completes."""
        req = Request(0, 10, 6, 0.0)  # 16 tokens = 4 blocks of 4
        _, finished, failed = _drive([req], num_blocks=4, block_size=4,
                                     budget=8, chunk=4)
        assert failed == [] and finished == [req]
        assert len(req.output) == 6

    @given(case=schedule_cases(), seed=st.integers(0, 2**31))
    @fast
    def test_bitwise_deterministic_per_seed(self, case, seed):
        def run():
            reqs = [Request(i, p, n, a)
                    for i, (p, n, a) in enumerate(case["reqs"])]
            _, fin, fail = _drive(
                reqs, num_blocks=case["num_blocks"],
                block_size=case["block_size"], budget=case["budget"],
                chunk=case["chunk"], seed=seed)
            return [(r.req_id, r.t_finished, tuple(r.output), r.preemptions)
                    for r in fin]
        assert run() == run()


# ---------------------------------------------------------------------------
# Records and the report: each latency defined once, on the record
# ---------------------------------------------------------------------------


def _ref_latencies(r):
    """``(completed, ttft, token_latency)`` by the formulas the record's
    properties used before they became fields."""
    completed = r.fail_reason is None and r.t_finished is not None
    ttft = None if r.t_first_token is None else r.t_first_token - r.arrival
    if not completed or r.t_first_token is None:
        lat = None
    elif len(r.output) <= 1:
        lat = 0.0
    else:
        lat = (r.t_finished - r.t_first_token) / (len(r.output) - 1)
    return completed, ttft, lat


def _ref_report(records, makespan):
    """``TrafficReport``'s numbers by the loop it ran before it read the
    records' fields."""
    n_completed = n_failed = preemptions = output_tokens = 0
    ttfts, lats, e2es = [], [], []
    for r in dict(sorted(records.items())).values():
        preemptions += r.preemptions
        if r.fail_reason is not None:
            n_failed += 1
            continue
        if r.t_finished is None:
            continue
        n_completed += 1
        n_out = len(r.output)
        output_tokens += n_out
        e2es.append(r.t_finished - r.arrival)
        if r.t_first_token is not None:
            ttfts.append(r.t_first_token - r.arrival)
            lats.append((r.t_finished - r.t_first_token) / (n_out - 1)
                        if n_out > 1 else 0.0)
    ttfts.sort()
    lats.sort()
    e2es.sort()
    span = makespan if makespan > 0 else float("nan")
    return {
        "n_issued": len(records), "n_completed": n_completed,
        "n_failed": n_failed, "preemptions": preemptions,
        "output_tokens": output_tokens,
        "goodput_tokens_per_sec": output_tokens / span,
        "completed_per_sec": n_completed / span,
        "p50_ttft": _percentile(ttfts, 50), "p99_ttft": _percentile(ttfts, 99),
        "mean_token_latency": sum(lats) / len(lats) if lats else None,
        "p99_token_latency": _percentile(lats, 99),
        "p50_e2e": _percentile(e2es, 50), "p99_e2e": _percentile(e2es, 99),
    }


_times = st.floats(0, 1e3, allow_nan=False)


@st.composite
def request_records(draw, req_id):
    """Completed, failed (with or without a first token) and unfinished
    records; one-token and empty outputs included."""
    arrival = draw(_times)
    first = draw(st.none() | _times.map(lambda d: arrival + d))
    finished = draw(st.none() | _times.map(
        lambda d: (arrival if first is None else first) + d))
    return RequestRecord(
        req_id=req_id, client=draw(st.integers(-1, 4)),
        prompt_tokens=draw(st.integers(1, 64)),
        max_new_tokens=draw(st.integers(1, 32)), arrival=arrival,
        t_first_token=first, t_finished=finished,
        output=tuple(draw(st.lists(st.integers(0, 996), max_size=4))),
        preemptions=draw(st.integers(0, 3)),
        fail_reason=draw(st.sampled_from([None, None, "RequestTooLarge"])))


class TestRecordsAndReport:
    @given(data=st.data(), n=st.integers(0, 12),
           makespan=st.sampled_from([0.0, 1e-3, 2.5]))
    @settings(max_examples=100, deadline=None)
    def test_fields_and_report_equal_the_formulas(self, data, n, makespan):
        records = {i: data.draw(request_records(i)) for i in range(n)}
        for r in records.values():
            assert (r.completed, r.ttft, r.token_latency) == _ref_latencies(r)
        report = TrafficReport(records, traffic={}, world=1,
                               makespan=makespan)
        want = _ref_report(records, makespan)
        got = {name: getattr(report, name) for name in want}
        # NaN goodput (no makespan) compares unequal to itself
        for name in ("goodput_tokens_per_sec", "completed_per_sec"):
            if math.isnan(want[name]):
                assert math.isnan(got.pop(name))
                want.pop(name)
        assert got == want

    def test_constructor_and_to_dict_keep_the_stored_fields(self):
        stored = ["req_id", "client", "prompt_tokens", "max_new_tokens",
                  "arrival", "t_first_token", "t_finished", "output",
                  "preemptions", "fail_reason"]
        assert list(inspect.signature(RequestRecord).parameters) == stored
        rec = RequestRecord(3, 1, 8, 4, 0.5, 0.75, 1.0, output=(1, 2, 3))
        assert list(rec.to_dict()) == stored
        assert (rec.completed, rec.ttft, rec.token_latency) == (
            True, 0.25, 0.125)
        assert RequestRecord(**dict(rec.to_dict(), output=rec.output)) == rec
        assert "ttft" not in repr(rec)


# ---------------------------------------------------------------------------
# Engine-level: priced TP decode on the simulated runtime
# ---------------------------------------------------------------------------


class TestServeEngine:
    def test_open_loop_completes_and_reports(self):
        rep = serve_traffic(SMALL_MODEL, _open(), world_size=2)
        assert isinstance(rep, TrafficReport)
        assert rep.n_completed == 24 and rep.n_failed == 0
        assert rep.goodput_tokens_per_sec > 0
        assert rep.p50_ttft is not None and rep.p99_ttft >= rep.p50_ttft
        assert rep.p99_e2e >= rep.p50_e2e
        assert rep.makespan > 0
        assert "goodput" in rep.format()

    @pytest.mark.parametrize("knob, value", [
        ("recovery_seconds", -1.0), ("recovery_seconds", math.nan),
        ("recovery_seconds", math.inf), ("max_recoveries", -1)])
    def test_engine_rejects_bad_recovery_knob(self, knob, value):
        """``serve_traffic`` reaches the engine without ``Config``'s field
        table: a rank loss must not be priced as free, negative or endless
        downtime."""
        with pytest.raises(ValueError, match=knob):
            serve_traffic(SMALL_MODEL, _open(n=4), world_size=2,
                          **{knob: value})

    def test_same_seed_bitwise_identical_report(self):
        a = serve_traffic(SMALL_MODEL, _open(seed=11), world_size=2)
        b = serve_traffic(SMALL_MODEL, _open(seed=11), world_size=2)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_different_schedule(self):
        a = serve_traffic(SMALL_MODEL, _open(seed=11), world_size=2)
        b = serve_traffic(SMALL_MODEL, _open(seed=12), world_size=2)
        assert a.to_dict() != b.to_dict()

    def test_preemption_preserves_outputs_end_to_end(self):
        roomy = serve_traffic(SMALL_MODEL, _open(), world_size=2)
        tight = serve_traffic(SMALL_MODEL, _open(), world_size=2,
                              kv_blocks=16, block_size=4)
        assert tight.preemptions > 0, "cache was not tight enough"
        assert ({r.req_id: r.output for r in roomy.records.values()}
                == {r.req_id: r.output for r in tight.records.values()})
        # preemption replays work, so latency must be priced in
        assert tight.p99_e2e > roomy.p99_e2e

    def test_closed_loop_self_throttles(self):
        rep = serve_traffic(
            SMALL_MODEL,
            ClosedLoopTraffic(clients=4, n_requests=20, seed=3,
                              prompt_tokens=(8, 24), max_new_tokens=(4, 12)),
            world_size=2)
        assert rep.n_completed == 20
        assert rep.preemptions == 0 or rep.preemptions >= 0  # report sane
        # at most `clients` in flight: arrivals follow completions
        recs = sorted(rep.records.values(), key=lambda r: r.req_id)
        for r in recs:
            if r.req_id >= 4:
                parent = rep.records[r.req_id - 4]
                assert r.arrival >= parent.t_finished

    def test_overload_raises_tail_latency(self):
        lo = serve_traffic(SMALL_MODEL, _open(rate=500.0, n=24),
                           world_size=2)
        hi = serve_traffic(SMALL_MODEL, _open(rate=50000.0, n=24),
                           world_size=2)
        assert hi.p99_ttft > lo.p99_ttft

    def test_unservable_request_fails_typed(self):
        rep = serve_traffic(
            SMALL_MODEL, _open(prompt=(200, 220), new=(4, 8), n=4),
            world_size=2, kv_blocks=8, block_size=4)
        assert rep.n_failed == 4
        assert all(r.fail_reason == "RequestTooLarge"
                   for r in rep.records.values())

    def test_single_rank_replica_works(self):
        rep = serve_traffic(SMALL_MODEL, _open(n=8), world_size=1)
        assert rep.n_completed == 8

    def test_per_request_trace_spans(self):
        tracer = Tracer()
        rep = serve_traffic(SMALL_MODEL, _open(n=12), world_size=2,
                            tracer=tracer, kv_blocks=16, block_size=4)
        spans = [s for s in tracer.spans() if s.cat == "serve"]
        kinds = {s.name.split("/")[0] for s in spans}
        assert {"queued", "prefill", "decode"} <= kinds
        if rep.preemptions:
            assert "preempted" in kinds
        for s in spans:
            assert 0.0 <= s.t0 <= s.t1 <= rep.makespan + 1e-9
        # decode spans exist for every completed request
        decoded = {int(s.name.split("req")[1]) for s in spans
                   if s.name.startswith("decode/")}
        assert decoded == {r.req_id for r in rep.records.values()
                           if r.fail_reason is None}

    def test_launch_serve_section(self):
        cfg = dict(serve=dict(
            model=dict(n_layers=2, hidden=256, n_heads=4, vocab=997),
            traffic=dict(kind="open", rate=2000.0, n_requests=10, seed=5,
                         prompt_tokens=[8, 16], max_new_tokens=[4, 8]),
            kv_blocks=64, block_size=8,
        ))
        rep = repro.launch(cfg, uniform_cluster(2), world_size=2)
        assert isinstance(rep, TrafficReport)
        assert rep.n_completed == 10

    def test_launch_without_fn_outside_serve_mode_raises(self):
        with pytest.raises(TypeError, match="per-rank fn"):
            repro.launch({}, uniform_cluster(2), world_size=2)

    def test_serve_config_validation(self):
        from repro.config import Config
        with pytest.raises(ValueError, match="serve.model"):
            Config.from_dict(dict(serve=dict(
                traffic=dict(kind="open", rate=1.0, n_requests=1))))
        with pytest.raises(ValueError, match="kind"):
            Config.from_dict(dict(serve=dict(
                model=dict(n_layers=1, hidden=8, n_heads=1),
                traffic=dict(kind="burst"))))
        with pytest.raises(ValueError, match="max_batch_tokens"):
            Config.from_dict(dict(serve=dict(
                model=dict(n_layers=1, hidden=8, n_heads=1),
                traffic=dict(kind="open", rate=1.0, n_requests=1),
                max_batch_tokens=0)))

    def test_kv_arena_released_on_clean_run(self):
        cluster = uniform_cluster(2)
        serve_traffic(SMALL_MODEL, _open(n=8), cluster=cluster,
                      world_size=2)
        for rank in range(2):
            assert cluster.device(rank).memory.allocated == 0

    def test_kv_arena_charged_on_every_device_and_released(self):
        """One block table per replica, one arena per rank: each device
        holds the whole pool's blocks at its own TP shard of KV bytes."""
        cluster = uniform_cluster(2)
        serve_traffic(SMALL_MODEL, _open(n=8), cluster=cluster,
                      world_size=2, kv_blocks=32, block_size=4)
        arena = 32 * 4 * SMALL_MODEL.kv_bytes_per_token(2)
        for rank in range(2):
            memory = cluster.device(rank).memory
            assert memory.peak == arena
            assert memory.allocated == 0

    def test_serving_starts_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self.name))
        plan = FaultPlan(seed=1).crash(1, at_time=0.004)
        rep = serve_traffic(SMALL_MODEL, _open(), world_size=2,
                            fault_plan=plan, recovery_seconds=0.001)
        assert rep.n_completed == 24 and rep.restarts == 1
        assert started == []

    def test_closed_loop_builds_no_generator_per_request(self, monkeypatch):
        """Closed-loop lengths come from one keyed-draw pass: no numpy
        ``Generator`` is built per request, and every request still gets
        the lengths ``default_rng([seed, req_id])`` draws."""
        real = np.random.default_rng
        built = []
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *a, **k: built.append(a) or real(*a, **k))
        rep = serve_traffic(
            SMALL_MODEL,
            ClosedLoopTraffic(clients=4, n_requests=20, seed=3,
                              prompt_tokens=(8, 24), max_new_tokens=(4, 12)),
            world_size=2)
        assert rep.n_completed == 20 and built == []
        for rid, rec in rep.records.items():
            g = real([3, rid])
            assert (rec.prompt_tokens, rec.max_new_tokens) == (
                g.integers(8, 25), g.integers(4, 13))


# ---------------------------------------------------------------------------
# Latency vs offered load, in units of the replica's measured capacity
# ---------------------------------------------------------------------------


class TestLatencyKnee:
    """Open-loop rates are multiples of the replica's capacity — the
    completed requests/s of 64 zero-think closed-loop clients, a decode
    batch deep enough to amortise the weight read — so 0.4x is underload,
    0.8x nears the knee and 1.6x is past it by construction."""

    MODEL = ModelSpec(n_layers=4, hidden=1024, n_heads=16)
    LENGTHS = dict(prompt_tokens=(16, 64), max_new_tokens=(8, 32))
    ENGINE = dict(world_size=2, max_batch_tokens=256, kv_blocks=256,
                  block_size=16)

    @pytest.fixture(scope="class")
    def capacity(self):
        probe = serve_traffic(
            self.MODEL,
            ClosedLoopTraffic(clients=64, n_requests=256, seed=7,
                              **self.LENGTHS),
            **self.ENGINE)
        assert probe.n_completed == 256
        return probe.completed_per_sec

    def _open_at(self, rate, n, seed, **engine):
        rep = serve_traffic(
            self.MODEL,
            OpenLoopTraffic(rate=rate, n_requests=n, seed=seed,
                            **self.LENGTHS),
            **self.ENGINE, **engine)
        assert rep.n_completed == n
        return rep

    def test_goodput_saturates_and_p99_rises_past_the_knee(self, capacity):
        under, near, past = 0.4, 0.8, 1.6
        lo, mid, hi = (
            self._open_at(capacity * m, 128, 11) for m in (under, near, past))
        assert mid.goodput_tokens_per_sec > lo.goodput_tokens_per_sec
        # past the knee the queue grows instead of the goodput
        growth = hi.goodput_tokens_per_sec / mid.goodput_tokens_per_sec
        assert growth < past / near
        assert hi.p99_ttft > lo.p99_ttft

    @pytest.mark.chaos
    def test_rank_loss_past_the_knee_is_priced_in_goodput(self, capacity):
        """At 1.2x capacity the run is service-bound: recovery downtime
        and KV replay extend the makespan instead of hiding in
        arrival-side idle headroom."""
        base = self._open_at(capacity * 1.2, 96, 13)
        faulty = self._open_at(
            capacity * 1.2, 96, 13,
            fault_plan=FaultPlan(seed=17).crash(
                1, at_time=base.makespan * 0.3),
            recovery_seconds=base.makespan * 0.15)
        assert faulty.restarts == 1 and len(faulty.failures) == 1
        retained = (faulty.goodput_tokens_per_sec
                    / base.goodput_tokens_per_sec)
        assert 0.0 < retained < 1.0
        assert faulty.p99_ttft > base.p99_ttft


# ---------------------------------------------------------------------------
# Chaos x serving: rank loss mid-request is an SLO event, not a crash
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestServingUnderFaults:
    def test_tp_rank_killed_mid_request_requeues_and_degrades_p99(self):
        traffic = _open(rate=2000.0, n=24, seed=7)
        base = serve_traffic(SMALL_MODEL, traffic, world_size=2)
        # kill rank 1 mid-serving: roughly halfway through the fault-free
        # makespan, guaranteed to interrupt in-flight decodes
        t_kill = base.makespan / 2
        plan = FaultPlan(seed=1).crash(1, at_time=t_kill)
        faulty = serve_traffic(SMALL_MODEL, traffic, world_size=2,
                               fault_plan=plan, recovery_seconds=0.002)

        # typed failure surfaced and recovered, not a crash
        assert faulty.restarts == 1
        assert len(faulty.failures) == 1
        ev = faulty.failures[0]
        assert ev.kind == "RankFailure" and ev.rank == 1
        assert ev.t >= t_kill

        # every request still completes (requeue), outputs bit-identical
        assert faulty.n_completed == 24
        assert ({r.req_id: r.output for r in base.records.values()}
                == {r.req_id: r.output for r in faulty.records.values()})

        # and the loss is priced: tail latency up, goodput down
        assert faulty.p99_ttft > base.p99_ttft
        assert faulty.p99_e2e > base.p99_e2e
        assert (faulty.goodput_tokens_per_sec
                < base.goodput_tokens_per_sec)

    def test_repeated_rank_loss_still_drains(self):
        traffic = _open(rate=2000.0, n=16, seed=9)
        base = serve_traffic(SMALL_MODEL, traffic, world_size=2)
        plan = (FaultPlan(seed=2)
                .crash(0, at_time=base.makespan / 4)
                .crash(1, at_time=base.makespan / 2))
        faulty = serve_traffic(SMALL_MODEL, traffic, world_size=2,
                               fault_plan=plan, recovery_seconds=0.001)
        assert faulty.restarts == 2
        assert faulty.n_completed == 16
        assert {f.kind for f in faulty.failures} == {"RankFailure"}

    def test_recovery_budget_exhaustion_reraises(self):
        traffic = _open(rate=2000.0, n=16, seed=9)
        plan = FaultPlan(seed=3).crash(1, at_time=1e-6)
        with pytest.raises(RemoteRankError):
            serve_traffic(SMALL_MODEL, traffic, world_size=2,
                          fault_plan=plan, max_recoveries=0)


# ---------------------------------------------------------------------------
# Failure paths leave nothing behind: no round, no KV arena, no pooled loan
# ---------------------------------------------------------------------------


def _assert_clean(rt):
    assert rt.world_group._rounds == {}
    for rank in range(rt.world_size):
        assert rt.cluster.device(rank).memory.allocated == 0
    assert rt.buffer_pool.loans == 0


@pytest.mark.chaos
class TestServingFailurePaths:
    def _serve(self, tp, plan, **engine):
        rt = SpmdRuntime(uniform_cluster(tp), tp, fault_plan=plan)
        return rt, lambda: serve_traffic(SMALL_MODEL, _open(), runtime=rt,
                                         **engine)

    def test_recovered_rank_kill(self):
        rt, serve = self._serve(2, FaultPlan(seed=1).crash(1, at_time=0.004),
                                recovery_seconds=0.001)
        rep = serve()
        assert rep.restarts == 1 and rep.n_completed == 24
        assert [(f.rank, f.kind) for f in rep.failures] == [(1, "RankFailure")]
        _assert_clean(rt)

    def test_exhausted_recovery_budget(self):
        rt, serve = self._serve(2, FaultPlan(seed=3).crash(1, at_time=1e-6),
                                max_recoveries=0)
        with pytest.raises(RemoteRankError) as exc:
            serve()
        assert exc.value.rank == 1
        assert isinstance(exc.value.cause, RankFailure)
        _assert_clean(rt)

    @pytest.mark.parametrize("tp", [2, 4])
    def test_blackout_names_the_rounds_last_member(self, tp):
        """A dead all-reduce is raised by the member that placed the
        round, the last to enter it."""
        rt, serve = self._serve(tp, FaultPlan(seed=4).blackout(op="all_reduce"),
                                max_recoveries=1, recovery_seconds=0.001)
        with pytest.raises(RemoteRankError) as exc:
            serve()
        assert exc.value.rank == tp - 1
        assert isinstance(exc.value.cause, CollectiveTimeout)
        _assert_clean(rt)

    def test_kv_arena_oom_names_the_refusing_rank(self):
        """Device 1 has room for half an arena: the replica fails typed at
        rank 1 before its first turn, and rank 0's arena is returned."""
        rt, serve = self._serve(2, None, kv_blocks=32, block_size=4)
        arena = 32 * 4 * SMALL_MODEL.kv_bytes_per_token(2)
        device = rt.cluster.device(1)
        filler = Storage(device, device.memory.free - arena // 2, "filler")
        with pytest.raises(RemoteRankError) as exc:
            serve()
        assert exc.value.rank == 1
        assert isinstance(exc.value.cause, DeviceOutOfMemoryError)
        assert "gpu1" in str(exc.value.cause)
        filler.release()
        _assert_clean(rt)
