"""Wall-clock fast-path guard (ISSUE 8, ``pytest -m perf``).

The fast path attacks *host* wall-clock only: pooled comm buffers,
event-driven rendezvous and spec-mode shortcuts must leave every simulated
result bitwise identical.  The tests here enforce that contract:

1. pooled vs unpooled runs are bitwise identical on every training program
   (relation 3 of the conformance oracle, ``test_conformance``), and on the
   DDP / ZeRO / pipeline cells x overlap x sanitize here;
2. the untimed rendezvous ends a stuck run at once: a :class:`CollectiveDesync`
   when every live rank is parked, an abort when a peer fails;
3. an unreturned pool loan is detected at end of run and *named*;
4. a park is bookkept inline: the deadlock rule runs only when every live
   rank is parked, never on a healthy storm;
5. serving host cost is counted, not timed (ISSUE 13): a TP replica makes
   each scheduling decision once, so ``repro.serve`` call counts grow by
   a per-rank-per-turn constant with the TP degree (not x tp), a decoded
   token costs under one call and under four line events of
   ``src/repro/serve`` (a turn pays for the requests whose state
   changes, not for every running one), and a rank out of lockstep is a
   typed error with every KV arena released; an admission attempt that stops
   at the free-list test makes no call, ``cluster`` calls grow with the
   distinct batch sizes x TP degree rather than with turns, and serve
   calls per admitted request stay under a stated bound;
6. one collective costs one dispatch (ISSUE 18): calls into ``src/repro``
   per rank-level exchange of a spec storm, no topology walk on a warm
   runtime, a sanitizer budget per exchange with no wait-for-graph walk
   on a healthy park, numpy's ``dtype.name`` getter run at most once per
   dtype beneath the observers, and call sites still named to the line;
7. a strategy compile scores the term, not the candidate (ISSUE 19): calls
   into ``src/repro`` per scored candidate, workload constants derived
   once per compile, pricing calls growing with the *distinct terms* of
   the search rather than with its candidates, and a replayed event
   costing under two calls with every labelled advance still annotated;
8. ``import repro`` loads ``numpy`` and the standard library only
   (ISSUE 20): what it imports, every process pays for in set-up seconds
   and resident memory;
9. a real op's C time is guarded where the call counter cannot see it: a
   GELU costs the same on negative and positive inputs, and the calls
   beneath a materialized ZeRO ``train_step`` stay within 5 % of their
   count when this guard was written;
10. a symmetric world runs one program (DESIGN §4ab): an 8-rank spec DDP
    step starts one program thread, and the storm, which reads its rank
    at once, starts eight, naming the read.
"""

import collections
import copy
import os
import subprocess
import sys
import threading
import time
import weakref
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.autograd import FnCtx, Function, checkpoint, ops
from repro.cluster import uniform_cluster
from repro.cluster.device import Device, DeviceKind, DeviceOutOfMemoryError
from repro.comm import Communicator, SpecArray
from repro.config import Config
from repro.context import ParallelContext
from repro.nn import (
    Linear, Module, ModuleList, Sequential, TransformerLayer,
)
from repro.parallel.data import DistributedDataParallel
from repro.parallel.pipeline import GPipeSchedule
from repro.runtime import RemoteRankError, SpmdRuntime
from repro.runtime.buffer_pool import BufferPool, BufferPoolLeak
from repro.serve import (
    BlockPool, ClosedLoopTraffic, ContinuousBatchingScheduler, ModelSpec,
    OpenLoopTraffic, serve_traffic,
)
from repro.sanitize.errors import CollectiveDesync
from repro.tensor import Tensor
from repro.tensor.tensor import Storage

from test_conformance import Cell, assert_same_run, execute

pytestmark = pytest.mark.perf

fast = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PROMPT = 1.0  #: wall seconds a stuck run may take: its verdict waits on no clock


# -- pooled vs unpooled bitwise parity --------------------------------------


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("sanitize", [False, True])
class TestPooledParity:
    """Relation 3 of the conformance oracle on one cell of each program,
    with the sanitizer on or off in *both* runs: results and the full
    end-state of the pooled run ``==`` the unpooled run's."""

    @staticmethod
    def _pooled(program, world, overlap, sanitize):
        cell = Cell(program, "uniform", world, "ring", overlap)
        pooled = execute(cell, sanitize=sanitize)
        assert_same_run(execute(cell, pool=False, sanitize=sanitize), pooled)
        return pooled.pool

    def test_ddp(self, overlap, sanitize):
        # the flat buckets restocked after step 1 are reused in step 2
        loans, reuses = self._pooled("ddp", 4, overlap, sanitize)
        assert loans > 0 and reuses > 0

    def test_zero(self, overlap, sanitize):
        loans, _ = self._pooled("zero3", 2, overlap, sanitize)
        assert loans > 0

    def test_pipeline(self, overlap, sanitize):
        self._pooled("gpipe", 2, overlap, sanitize)


# -- event-driven rendezvous semantics --------------------------------------


def _ends_at_once(prog, **runtime_kwargs):
    """The cause of a two-rank run's failure, raised within ``PROMPT``."""
    t0 = time.monotonic()
    with pytest.raises(RemoteRankError) as ei:
        SpmdRuntime(uniform_cluster(2), **runtime_kwargs).run(prog)
    assert time.monotonic() - t0 < PROMPT
    return ei.value.__cause__


class TestEventDrivenRendezvous:
    def test_desync_diagnosed_within_one_window(self):
        """A rank exiting without joining a collective convicts the round
        the moment the exit leaves its waiter the last live rank, parked."""

        def prog(ctx):  # rank 1 exits without joining
            if ctx.rank == 0:
                return Communicator.world(ctx).all_reduce(np.ones(4))

        assert isinstance(_ends_at_once(prog, sanitize=True), CollectiveDesync)

    def test_async_handle_desync_diagnosed_fast(self):
        """Same guarantee for a waiter parked in an async collective
        handle (the second of the two deduplicated wait loops)."""

        def prog(ctx):
            if ctx.rank == 0:
                return Communicator.world(ctx).iallreduce(np.ones(4)).wait()

        cause = _ends_at_once(prog, sanitize=True, comm_overlap=True)
        assert isinstance(cause, CollectiveDesync)

    def test_failure_wakes_parked_rendezvous_immediately(self):
        """A peer failure interrupts a parked waiter right away via the
        runtime's wake broadcast, with no sanitizer installed."""

        def prog(ctx):
            if ctx.rank == 1:
                raise ValueError("boom")
            return Communicator.world(ctx).all_reduce(np.ones(4))

        assert str(_ends_at_once(prog)) == "boom"


# -- pool lifecycle ----------------------------------------------------------


class TestBufferPool:
    def test_leak_detected_and_named(self):
        """A loan that is neither restocked nor adopted must fail the run
        with the loan's label in the error."""

        def prog(ctx):
            if ctx.rank == 0:
                ctx.runtime.buffer_pool.loan((8,), np.float32, "test.leaky")

        rt = SpmdRuntime(uniform_cluster(2))
        with pytest.raises(BufferPoolLeak, match="test.leaky"):
            rt.run(prog)
        # the leak report drains outstanding state: the runtime is reusable
        rt.run(lambda ctx: None)

    def test_loan_restock_reuses_buffer(self):
        pool = BufferPool()
        a = pool.loan((16,), np.float32, "x")
        pool.restock(a)
        b = pool.loan((16,), np.float32, "x")
        assert b is a
        assert pool.reuses == 1
        pool.restock(b)
        # different shape or dtype never shares storage
        c = pool.loan((17,), np.float32, "x")
        d = pool.loan((16,), np.float64, "x")
        assert c is not a and d is not a
        pool.restock(c)
        pool.restock(d)
        pool.check_leaks()

    def test_adopt_removes_from_tracking(self):
        pool = BufferPool()
        a = pool.loan((4,), np.float32, "escapes")
        pool.adopt(a)
        pool.check_leaks()  # no leak
        pool.restock(a)  # donation of an adopted buffer is also legal
        assert pool.loan((4,), np.float32, "y") is a

    def test_restock_drops_frozen_views_and_noncontiguous(self):
        """Race-detector loans stay frozen until final_release; the pool
        must refuse to recirculate them (and any view/non-contiguous
        array) rather than hand out a read-only or aliased buffer."""
        pool = BufferPool()
        frozen = pool.loan((4,), np.float32, "frozen")
        frozen.flags.writeable = False
        pool.restock(frozen)
        z = pool.loan((4,), np.float32, "z")
        assert z is not frozen
        pool.restock(z)

        base = np.zeros((4, 4), dtype=np.float32)
        pool.restock(base[1])  # view
        pool.restock(np.asfortranarray(np.zeros((3, 3))).T[::2])
        pool.check_leaks()


# hypothesis ops for TestBufferPoolProperties: (op, index) where index picks
# the shape for loans/donations and the held buffer for returns
_POOL_SHAPES = ((4,), (16,), (4, 4))
_pool_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["loan", "restock", "freeze_restock", "adopt", "donate"]),
        st.integers(0, 31),
    ),
    min_size=1, max_size=80,
)


class TestBufferPoolProperties:
    """Hypothesis lane over random loan/restock/adopt/donate schedules."""

    def _replay(self, ops):
        """Run an op schedule; returns (pool, held, frozen) where held is
        the list of (arr, label) still outstanding and frozen keeps a live
        reference to every buffer frozen at restock time (so ids can't be
        recycled by the allocator)."""
        pool = BufferPool()
        held = []
        frozen = []
        loans = 0
        for op, idx in ops:
            if op == "loan":
                label = f"lane.buf{loans}"
                arr = pool.loan(_POOL_SHAPES[idx % len(_POOL_SHAPES)],
                                np.float32, label)
                # a loan must never alias a buffer that was frozen when
                # it went back to the pool
                assert all(arr is not f for f in frozen), \
                    "pool handed out a frozen buffer"
                assert arr.flags.writeable and arr.flags.c_contiguous
                held.append((arr, label))
                loans += 1
            elif op == "donate":
                pool.restock(np.empty(
                    _POOL_SHAPES[idx % len(_POOL_SHAPES)], np.float32))
            elif held:
                arr, label = held.pop(idx % len(held))
                if op == "restock":
                    pool.restock(arr)
                elif op == "freeze_restock":
                    arr.flags.writeable = False
                    frozen.append(arr)
                    pool.restock(arr)
                else:
                    pool.adopt(arr)
            # the free list is bounded per (shape, dtype) key at all times
            for key, bucket in pool._free.items():
                assert len(bucket) <= BufferPool.MAX_PER_KEY, \
                    f"free list for {key} grew to {len(bucket)}"
        return pool, held, frozen

    @given(ops=_pool_ops)
    @fast
    def test_never_alias_frozen_and_bounded_free_list(self, ops):
        pool, held, _ = self._replay(ops)
        for arr, _ in held:  # clean up so check_leaks can pass
            pool.restock(arr)
        pool.check_leaks()

    @given(ops=_pool_ops)
    @fast
    def test_check_leaks_names_every_outstanding_label(self, ops):
        pool, held, _ = self._replay(ops)
        expected = sorted(label for _, label in held)
        if not expected:
            pool.check_leaks()  # nothing outstanding: must not raise
            return
        with pytest.raises(BufferPoolLeak) as exc:
            pool.check_leaks()
        assert sorted(exc.value.labels) == expected
        pool.check_leaks()  # the report drained the outstanding state


# -- serving: one scheduler per replica, O(1) bookkeeping per token ---------


class _CallCounter:
    """Python ``call`` events into files under ``prefixes``, by
    ``key(code)``.  One hook (and one counter) per thread, merged by
    :meth:`total`, so the counts are exact rather than racing on a shared
    dict."""

    def __init__(self, *prefixes, key=lambda code: code.co_name):
        self.prefixes = prefixes
        self.key = key
        self.parts = []

    def _make_hook(self):
        calls = collections.Counter()
        self.parts.append(calls)
        prefixes, key = self.prefixes, self.key

        def hook(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(prefixes):
                calls[key(frame.f_code)] += 1
        return hook

    @contextmanager
    def this_thread(self):
        sys.setprofile(self._make_hook())
        try:
            yield
        finally:
            sys.setprofile(None)

    def total(self):
        total = collections.Counter()
        for calls in self.parts:
            total.update(calls)
        return total


class _BeneathCounter(_CallCounter):
    """Only the calls made beneath (and including) a frame whose key is one
    of ``roots``, counted by ``(root, key(code))``: what one entry point
    costs, wherever else its callees are also reached from."""

    def __init__(self, *prefixes, key, roots):
        super().__init__(*prefixes, key=key)
        self.roots = frozenset(roots)

    def _make_hook(self):
        calls = collections.Counter()
        self.parts.append(calls)
        prefixes, key, roots = self.prefixes, self.key, self.roots
        root, depth = None, 0  # Python frames open beneath ``root``

        def hook(frame, event, arg):
            nonlocal root, depth
            if event == "call":
                code = frame.f_code
                ours = code.co_filename.startswith(prefixes)
                if not depth and ours and key(code) in roots:
                    root = key(code)
                if depth or root is not None:
                    depth += 1
                    if ours:
                        calls[root, key(code)] += 1
            elif event == "return" and depth:
                depth -= 1
                if not depth:
                    root = None
        return hook


@contextmanager
def _count_serve_calls():
    """Calls into ``src/repro/serve``, by function name (serving runs on
    the calling thread)."""
    import repro.serve

    counter = _CallCounter(os.path.dirname(repro.serve.__file__) + os.sep)
    total = collections.Counter()
    with counter.this_thread():
        yield total
    total.update(counter.total())


@contextmanager
def _count_serve_lines():
    """Line events in ``src/repro/serve`` frames, by ``sys.settrace`` on the
    calling thread (serving starts none): a deterministic count of the
    Python the serve layer runs, loops included."""
    import repro.serve

    prefix = os.path.dirname(repro.serve.__file__) + os.sep
    count = [0]

    def local(frame, event, arg):
        if event == "line":
            count[0] += 1
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(scope)
    try:
        yield count
    finally:
        sys.settrace(previous)


_SERVE_MODEL = ModelSpec(n_layers=2, hidden=256, n_heads=4, vocab=997)


def _counted_serve(tp, traffic, **kwargs):
    with _count_serve_calls() as calls:
        report = serve_traffic(_SERVE_MODEL, traffic, world_size=tp,
                               kv_blocks=512, **kwargs)
    assert report.n_completed == traffic.n_requests
    assert report.preemptions == 0, "pool was meant to be roomy"
    return calls, report


class TestServeHostCost:
    #: what one rank adds: per turn its step is priced; per run its pricer
    #: is bound (``step_pricer``, ``params`` twice, ``kv_bytes_per_token``)
    PER_RANK_TURN, PER_RANK_RUN = 1, 4

    def test_calls_do_not_scale_with_tp_degree(self):
        # every request has arrived before the first step ends, so the
        # schedule (and with it the replica's work) is the same at any TP
        burst = OpenLoopTraffic(rate=1e9, n_requests=120, seed=3,
                                prompt_tokens=(8, 24), max_new_tokens=(4, 12))
        calls = {tp: _counted_serve(tp, burst)[0] for tp in (1, 2, 4)}
        turns = calls[1]["advance"]
        base = sum(calls[1].values())
        for tp in (2, 4):
            # planned and applied once per replica, whatever the TP degree
            for fn in ("advance", "step", "apply"):
                assert calls[tp][fn] == calls[1][fn], fn
            extra = sum(calls[tp].values()) - base
            allowed = (tp - 1) * (
                self.PER_RANK_TURN * turns + self.PER_RANK_RUN)
            assert 0 <= extra <= allowed, (tp, extra, allowed)

    @staticmethod
    def _per_extra_token(counted):
        """``counted(traffic) -> (cost, output tokens)`` over the same 100
        requests at 16 and at 48 new tokens each: the cost of one more
        decoded token."""
        def run(new_tokens):
            return counted(OpenLoopTraffic(
                rate=5e4, n_requests=100, seed=4, prompt_tokens=(8, 24),
                max_new_tokens=(new_tokens, new_tokens)))

        cost_short, tokens_short = run(16)
        cost_long, tokens_long = run(48)
        return (cost_long - cost_short) / (tokens_long - tokens_short)

    def test_decoded_token_costs_under_one_call(self):
        def counted(traffic):
            calls, report = _counted_serve(2, traffic)
            return sum(calls.values()), report.output_tokens

        per_token = self._per_extra_token(counted)
        assert per_token <= 1.0, per_token

    #: line events in ``src/repro/serve`` per extra decoded token: read
    #: 18.3 while ``step`` and ``apply`` walked every running request each
    #: turn and drew its token, 2.9 since; what is left is the block growth
    #: every ``block_size`` tokens and the longer run's extra turns
    LINES_PER_DECODED_TOKEN = 4.0

    def test_decoded_token_costs_few_lines(self):
        def counted(traffic):
            with _count_serve_lines() as lines:
                report = serve_traffic(_SERVE_MODEL, traffic, world_size=2,
                                       kv_blocks=512)
            assert report.preemptions == 0, "pool was meant to be roomy"
            return lines[0], report.output_tokens

        per_token = self._per_extra_token(counted)
        assert per_token <= self.LINES_PER_DECODED_TOKEN, per_token

    def test_failed_admission_attempt_makes_no_call(self):
        """Tight KV, closed loop: a step whose admission stops at the
        free-list test costs exactly the calls of the same step with
        nothing left to admit after what it did admit."""
        sched = ContinuousBatchingScheduler(
            BlockPool(block_size=4, num_blocks=12), 32, prefill_chunk=8,
            gen_seed=1, vocab=997)
        traffic = ClosedLoopTraffic(clients=16, n_requests=160, seed=5,
                                    prompt_tokens=(4, 24),
                                    max_new_tokens=(2, 12))
        for req in traffic.outstanding({}):
            sched.submit(req)

        def counted_step(scheduler, now):
            with _count_serve_calls() as calls:
                plan = scheduler.step(now)
            return calls, plan

        now, stops = 0.0, 0
        while not sched.drained:
            twin = copy.deepcopy(sched)
            calls, plan = counted_step(sched, now)
            # budget left, no eviction, and a request still at the head of
            # a queue: admission stopped at the free-list test
            if (plan.new_tokens < sched.max_batch_tokens
                    and not plan.preempted
                    and (sched.paused or (sched.waiting and
                                          sched.waiting[0].arrival <= now))):
                stops += 1
                popped = {r.req_id for r in plan.admitted + plan.failed}
                for queue in (twin.paused, twin.waiting):
                    kept = [r for r in queue if r.req_id in popped]
                    queue.clear()
                    queue.extend(kept)
                twin_calls, twin_plan = counted_step(twin, now)
                assert ([r.req_id for r in twin_plan.admitted]
                        == [r.req_id for r in plan.admitted])
                assert calls == twin_calls, (calls - twin_calls,
                                             twin_calls - calls)
            if not (plan.prefill or plan.decode or plan.failed
                    or plan.preempted):
                now = max(now, sched.next_arrival())
                continue
            now += 1e-3
            finished, _ = sched.apply(plan, now)
            for req in plan.failed + finished:
                follow_up = traffic.next_request(req, now)
                if follow_up is not None:
                    sched.submit(follow_up)
        assert stops > 50, stops

    #: calls into ``src/repro/cluster`` a counted run makes besides pricing:
    #: per rank its device is looked up and its KV arena charged and
    #: released; per run the world ring is walked once
    CLUSTER_PER_RANK_RUN, CLUSTER_PER_RUN = 8, 24

    @pytest.mark.parametrize("tp", [2, 4])
    def test_cluster_calls_grow_with_batch_sizes_not_turns(self, tp,
                                                           monkeypatch):
        """The step's compute term is asked of each rank's device once
        per distinct batch size (``compute_seconds`` →
        ``flops_per_second``), not once per turn."""
        import repro.cluster

        sizes = []
        step = ContinuousBatchingScheduler.step

        def recording_step(sched, now):
            plan = step(sched, now)
            sizes.append(plan.new_tokens)
            return plan

        monkeypatch.setattr(ContinuousBatchingScheduler, "step",
                            recording_step)
        # long decodes: most turns repeat a batch size already priced
        traffic = OpenLoopTraffic(rate=5e3, n_requests=300, seed=3,
                                  prompt_tokens=(8, 24),
                                  max_new_tokens=(16, 48))
        rt = SpmdRuntime(uniform_cluster(tp), tp)
        counter = _CallCounter(os.path.dirname(repro.cluster.__file__) + os.sep)
        with counter.this_thread():
            serve_traffic(_SERVE_MODEL, traffic, runtime=rt, kv_blocks=512)
        calls = counter.total()
        distinct = len({n for n in sizes if n > 0})
        priced = sum(1 for n in sizes if n > 0)
        assert priced > 3 * distinct, "too few repeated sizes to tell"
        assert calls["compute_seconds"] == distinct * tp
        bound = (2 * distinct * tp + self.CLUSTER_PER_RANK_RUN * tp
                 + self.CLUSTER_PER_RUN)
        assert sum(calls.values()) <= bound, (calls, bound)

    #: frames beneath one warm ``drive_round`` (a served step's all-reduce)
    #: at any TP degree: the round record, the last arriver's
    #: ``_finalize_round``, the finalize and its one-frame price, ``place``
    #: with its member loop, the counters' record.  Read 16 at TP 2 and 18
    #: at TP 4 before DESIGN 4l cut 4 (a ``sync_to`` per member, the
    #: shape-check / combine / replicate helpers, a three-frame price)
    FRAMES_PER_DRIVEN_ROUND = 8

    @pytest.mark.parametrize("tp", [2, 4])
    def test_driven_round_frames(self, tp):
        traffic = OpenLoopTraffic(rate=2e4, n_requests=100, seed=3,
                                  prompt_tokens=(8, 24), max_new_tokens=(4, 12))
        rt = SpmdRuntime(uniform_cluster(tp), tp)
        # the first session prices every batch size the second one asks for
        serve_traffic(_SERVE_MODEL, traffic, runtime=rt, kv_blocks=512)
        root = "comm/group.py:ProcessGroup.drive_round"
        counter = _repro_counter(beneath=(root,))
        with counter.this_thread():
            serve_traffic(_SERVE_MODEL, traffic, runtime=rt, kv_blocks=512)
        calls = counter.total()
        rounds = calls[root, root]
        assert rounds > 20
        frames = sum(n for (r, _), n in calls.items() if r == root)
        assert frames <= self.FRAMES_PER_DRIVEN_ROUND * rounds, calls

    #: serve calls per admission (re-admissions after preemption count),
    #: read at 13.4 (roomy, open loop) and 19.3 (tight, closed loop) when
    #: this guard was written; 22.4 and 35.7 before admission, block growth
    #: and the record fields stopped paying helper frames
    PER_ADMISSION_ROOMY, PER_ADMISSION_TIGHT = 15.0, 21.5

    def test_serve_calls_per_admitted_request(self):
        lengths = dict(seed=3, prompt_tokens=(8, 40), max_new_tokens=(4, 24))
        roomy, _ = _counted_serve(
            2, OpenLoopTraffic(rate=2e4, n_requests=300, **lengths))
        with _count_serve_calls() as tight:
            report = serve_traffic(
                _SERVE_MODEL, ClosedLoopTraffic(clients=32, n_requests=300,
                                                **lengths),
                world_size=2, kv_blocks=24)
        assert report.n_completed == 300 and report.preemptions > 50
        for calls, bound in ((roomy, self.PER_ADMISSION_ROOMY),
                             (tight, self.PER_ADMISSION_TIGHT)):
            per_admission = sum(calls.values()) / calls["start_generation"]
            assert per_admission <= bound, (per_admission, bound)


# -- training: what one dispatched op costs (ISSUE 17) -----------------------


def _counted_spec_step(world=2, layers=2, hidden=64, heads=4, warm=False):
    """One overlapped, checkpointed spec-mode DDP step per rank, counted
    from the first forward op to the end of ``sync`` (model construction
    stays outside the window); ``warm`` runs an uncounted step first, so
    the counted one finds every op plan in the runtime's table.  Returns
    (calls keyed like ``autograd/function.py:Function.apply``, frames
    inside numpy's stride tricks, distinct op signatures planned)."""
    import inspect

    import repro

    root = os.path.dirname(repro.__file__) + os.sep
    stride_tricks = inspect.getsourcefile(np.broadcast_shapes)
    counter = _CallCounter(
        root, stride_tricks,
        key=lambda code: "numpy" if code.co_filename == stride_tricks
        else f"{code.co_filename[len(root):]}:{code.co_qualname}")

    class Stack(Module):
        def __init__(self):
            super().__init__()
            self.layers = ModuleList([
                TransformerLayer(hidden, heads, dtype="float16")
                for _ in range(layers)])

        def forward(self, x):
            for layer in self.layers:
                x = checkpoint(layer, x)
            return x

    def prog(ctx, counted):
        pc = ParallelContext(ctx, Config.from_dict({}))
        ddp = DistributedDataParallel(Stack(), pc, bucket_mb=0.01, overlap=True)
        x = Tensor(SpecArray((2, 8, hidden), "float16"), requires_grad=True)
        with counter.this_thread() if counted else nullcontext():
            ddp(x).sum().backward()
            ddp.sync()

    rt = SpmdRuntime(uniform_cluster(world), world, comm_overlap=True)
    rt._represent = False  # every rank dispatches its own ops (DESIGN §4ab)
    if warm:
        rt.run(prog, False, materialize=False)
    rt.run(prog, True, materialize=False)
    calls = counter.total()
    return calls, calls.pop("numpy", 0), len(rt.op_plans)


class TestModuleHostCost:
    """A module costs the frames of its own ``__init__`` and ``forward``
    and none of ``Module``'s: parameters and children are read off the
    instance dict, so nothing registers an assignment, and ``m(x)`` is
    ``m.forward(x)``."""

    def test_building_a_layer_runs_no_module_frame(self):
        counter = _repro_counter()

        def prog(ctx):
            with counter.this_thread():
                TransformerLayer(64, 4, dtype="float16")

        SpmdRuntime(uniform_cluster(1)).run(prog, materialize=False)
        calls = counter.total()
        assert calls["nn/transformer.py:TransformerLayer.__init__"] == 1
        assert {k for k in calls if k.startswith("nn/module.py:")} == {
            "nn/module.py:Parameter.__init__"}

    def test_sequential_forward_runs_no_call_wrapper(self):
        counter = _repro_counter()

        def prog(ctx):
            seq = Sequential([TransformerLayer(64, 4, dtype="float16"),
                              Linear(64, 64, dtype="float16")])
            x = Tensor(SpecArray((2, 8, 64), "float16"))
            with counter.this_thread():
                seq(x)

        SpmdRuntime(uniform_cluster(1)).run(prog, materialize=False)
        calls = counter.total()
        assert calls["nn/transformer.py:TransformerLayer.forward"] == 1
        assert calls["nn/layers.py:Linear.forward"] == 5
        assert {k for k in calls if k.startswith("nn/module.py:")} == {
            "nn/module.py:Sequential.forward"}


class TestSpecDispatchCost:
    #: calls into src/repro per ``Function.apply`` over the whole step —
    #: forward, recompute, backward, bucket all-reduces — on a cold op-plan
    #: table.  Reads 10.9; 13.9 while each context read was a frame and
    #: each op output went through ``Tensor._wrap``, 16.5 while each graph
    #: op also built a ``Node`` and each storage went through
    #: ``MemoryPool.alloc`` / ``free_bytes``, 25.3 when every dispatch ran
    #: its own shape inference, 66.7 before the per-helper context lookups,
    #: generator frames and property chains went
    CALLS_PER_OP = 12.0
    #: calls into ``payload_ops`` per distinct op signature over a warm
    #: step.  Reads 2 calls for 23 signatures: each rank's ``ones_like``
    #: seed
    INFERENCE_PER_SIGNATURE = 1.0

    @pytest.fixture(scope="class")
    def counted(self):
        return _counted_spec_step()

    def test_calls_per_dispatched_op(self, counted):
        calls, numpy_frames, _ = counted
        ops_run = calls["autograd/function.py:Function.apply"]
        assert ops_run > 200, "step no longer exercises the dispatch path"
        per_op = sum(calls.values()) / ops_run
        assert per_op <= self.CALLS_PER_OP, per_op
        # shapes are inferred on tuples: broadcasting and basic slicing
        # (split -> slice_) never reach numpy's stride tricks
        assert calls["autograd/payload_ops.py:_broadcast"] > 0
        assert calls["autograd/payload_ops.py:_basic_index_shape"] > 0
        assert numpy_frames == 0

    def test_inference_grows_with_signatures_not_depth(self):
        """On a warm table no pure op infers a shape: calls into
        ``payload_ops`` are bounded by the distinct signatures of the step,
        whatever its depth — layers, ranks and recompute repeat signatures,
        they do not add any."""
        inferred = {}
        for layers in (2, 6):
            calls, _, signatures = _counted_spec_step(layers=layers, warm=True)
            assert calls["autograd/function.py:Function.apply"] > 100 * layers
            inferred[layers] = sum(
                n for fn, n in calls.items()
                if fn.startswith("autograd/payload_ops.py:"))
            assert inferred[layers] <= self.INFERENCE_PER_SIGNATURE * signatures
            for fn in ("_broadcast", "_basic_index_shape", "matmul_shape"):
                assert calls[f"autograd/payload_ops.py:{fn}"] == 0, fn
        assert inferred[6] == inferred[2] > 0

    def test_one_context_read_per_op(self, monkeypatch):
        """Each dispatched op, each ``backward()`` and each public
        ``Tensor(...)`` reads the thread-local rank context once; nothing
        below them reads it again.  ``rank_context`` is a C callable, so
        its reads are counted by wrapping every module's binding of it,
        inside the counted window only."""
        import repro.runtime.spmd as spmd

        read, reads = spmd.rank_context, []

        def counting_read():
            hook = sys.getprofile()
            if hook is not None and hook.__qualname__.startswith("_CallCounter."):
                reads.append(1)
            return read()

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "rank_context", None) is read:
                monkeypatch.setattr(module, "rank_context", counting_read)
        calls, _, _ = _counted_spec_step()
        reads = len(reads) + sum(calls[f"runtime/spmd.py:{fn}"] for fn in (
            "current_rank_context", "in_spmd"))
        entry_points = (
            calls["autograd/function.py:Function.apply"]
            + calls["autograd/engine.py:backward"]
            + calls["tensor/tensor.py:Tensor.__init__"]
        )
        assert 0 < reads <= entry_points
        assert reads <= 1.1 * calls["autograd/function.py:Function.apply"]

    def test_no_finalizer_per_storage(self, monkeypatch):
        created = []
        init = weakref.finalize.__init__

        def counting_init(self, *args, **kwargs):
            created.append(args[:1])
            init(self, *args, **kwargs)

        monkeypatch.setattr(weakref.finalize, "__init__", counting_init)
        calls, _, _ = _counted_spec_step()
        assert created == []
        assert calls["cluster/device.py:Storage.release"] > 0

    def test_bytes_enter_a_pool_only_through_storage(self, counted):
        """Across the step the only frames in ``cluster/device.py`` are a
        storage's two: its constructor charges the pool inline and its
        release returns the bytes inline."""
        calls, _, _ = counted
        frames = {k for k in calls if k.startswith("cluster/device.py:")}
        assert frames == {"cluster/device.py:Storage.__init__",
                          "cluster/device.py:Storage.release"}

    def test_storage_lifetime_costs_two_frames(self):
        """Allocation to last reference: the constructor and ``release``."""
        dev = Device("gpu", DeviceKind.GPU, memory_capacity=1024)
        counter = _repro_counter()
        with counter.this_thread():
            st = Storage(dev, 64, "activation")
            del st
        assert counter.total() == {"cluster/device.py:Storage.__init__": 1,
                                   "cluster/device.py:Storage.release": 1}
        assert dev.memory.allocated == 0

    def test_op_with_a_gradient_is_one_object(self, counted):
        """The op's context is its graph node: an output's ``grad_fn`` is
        the very ``FnCtx`` its ``forward`` filled, and a dispatch runs no
        constructor of its own beyond a cold signature's ``OpPlan``."""
        calls, _, signatures = counted
        built = {k for k in calls if k.startswith("autograd/function.py:")
                 and k.endswith(".__init__")}
        assert built <= {"autograd/function.py:OpPlan.__init__"}
        assert calls["autograd/function.py:OpPlan.__init__"] <= signatures

        seen = []

        class Probe(Function):
            @staticmethod
            def forward(ctx, x):
                seen.append(ctx)
                return x.payload

        x = Tensor(np.ones(3, np.float32), requires_grad=True)
        y = Probe.apply(x)
        node = y.grad_fn
        assert type(node) is FnCtx and node is seen[0]
        assert node.name == "Probe" and node.inputs[0] is x
        assert node.outputs[0]() is y


class TestStorageLifetime:
    def _device(self, capacity=1024):
        return Device("gpu", DeviceKind.GPU, memory_capacity=capacity)

    def test_double_release_is_a_noop(self):
        dev = self._device()
        other = Storage(dev, 100, "param")
        st = Storage(dev, 300, "activation")
        st.release()
        st.release()
        assert not st.alive and other.alive
        assert dev.memory.allocated == 100
        del st  # __del__ after release() must not free again
        assert dev.memory.allocated == 100
        assert dev.memory.breakdown() == {"param": 100, "activation": 0}

    def test_failed_allocation_returns_nothing(self):
        dev = self._device(capacity=256)
        keep = Storage(dev, 200, "param")
        with pytest.raises(DeviceOutOfMemoryError):
            Storage(dev, 100, "activation")
        # the half-built Storage is dropped here: nothing to free, no
        # underflow, and the survivor's bytes are still accounted
        assert dev.memory.allocated == 200
        assert dev.memory.breakdown() == {"param": 200}
        keep.release()
        assert dev.memory.allocated == 0

    def test_bytes_return_on_last_reference_without_gc(self):
        import gc

        dev = self._device()
        gc.disable()
        try:
            t = Tensor(np.zeros(16, dtype=np.float32), device=dev)
            view = t.detach()
            assert dev.memory.allocated == 64
            del t
            assert dev.memory.allocated == 64, "a view keeps the bytes"
            del view
            assert dev.memory.allocated == 0
        finally:
            gc.enable()


# -- comm: what one collective costs (ISSUE 18) ------------------------------

_STORM_WORLD, _STORM_ROW, _STORM_ROUNDS = 8, 4, 8
_STORM_EXCHANGES = 7  # rank-level exchanges per round, below


def _storm_round(world, row, col, r, i):
    """``bench/``'s storm: seven kinds of exchange, payload cycling
    16 KiB - 16 MiB; the nonblocking all-reduce's wait belongs to it."""
    n = (4096, 65536, 524288, 4194304)[i % 4]
    x = SpecArray((n,), "float32")
    world.all_reduce(x)
    row.all_gather(x)
    col.reduce_scatter(x)
    row.broadcast(x if row.rank == 0 else None)
    handle = world.iallreduce(x)
    world.all_to_all([SpecArray((n // _STORM_WORLD,), "float32")
                      for _ in range(_STORM_WORLD)])
    world.sendrecv(x, (r + 1) % _STORM_WORLD, (r - 1) % _STORM_WORLD, tag=i)
    handle.wait()


def _repro_counter(beneath=None):
    """Calls into ``src/repro``, keyed like
    ``comm/group.py:ProcessGroup.rendezvous`` — all of them, or only those
    ``beneath`` the given entry points, keyed ``(entry point, callee)``."""
    import repro

    root = os.path.dirname(repro.__file__) + os.sep

    def key(code):
        return f"{code.co_filename[len(root):]}:{code.co_qualname}"

    if beneath is None:
        return _CallCounter(root, key=key)
    return _BeneathCounter(root, key=key, roots=beneath)


def _counted_storm(runs=1, beneath=None, counter=None, **runtime_kwargs):
    """The storm on System II under ``auto``, ``runs`` times on one runtime;
    the last run is counted on every rank from its first exchange to its
    last (thread start-up and group construction stay outside).  Returns
    calls keyed like ``comm/group.py:ProcessGroup.rendezvous`` (see
    :func:`_repro_counter` for ``beneath``), or as ``counter`` keys them."""
    from repro.cluster import system_ii

    counter = counter or _repro_counter(beneath)

    def prog(ctx, counted):
        world = Communicator.world(ctx)
        r = ctx.rank
        row = world.subgroup(range(r - r % _STORM_ROW, r - r % _STORM_ROW + _STORM_ROW))
        col = world.subgroup(range(r % _STORM_ROW, _STORM_WORLD, _STORM_ROW))
        world.barrier()
        with counter.this_thread() if counted else nullcontext():
            for i in range(_STORM_ROUNDS):
                _storm_round(world, row, col, r, i)

    rt = SpmdRuntime(system_ii(), _STORM_WORLD, comm_algorithm="auto",
                     comm_overlap=True, **runtime_kwargs)
    for run in range(runs):
        rt.run(prog, run == runs - 1, materialize=False)
    return counter.total()


def _layer_calls(calls, layer):
    return sum(n for key, n in calls.items() if key.startswith(layer + "/"))


class TestCollectiveHostCost:
    """One collective, one dispatch (DESIGN 4l), counted not timed."""

    RANK_OPS = _STORM_WORLD * _STORM_ROUNDS * _STORM_EXCHANGES
    #: calls into src/repro per rank-level exchange, observers off.  Reads
    #: 11.2 since the last arriver moves member clocks in one frame, a spec
    #: round finalizes inline and a warm price is one frame (13.3 before,
    #: DESIGN 4l cut 4; 13.9 before a parked waiter read the abort flag
    #: inline; 14.5 before that; 15.2 before a repeated query was one memo
    #: read, DESIGN 4w; 14.9 when written, 12.9 on bench's 150 rounds, where
    #: the first-use pricing amortises); re-walking the topology every round
    #: and the per-rank helper frames read 29.4 (26.4)
    CALLS_PER_RANK_OP = 12.3
    #: calls into src/repro/sanitize per exchange under Tracer + full
    #: sanitizer; reads 1.9 since an observed round costs one ``enter`` hook
    #: per member and a fixed few frames (7.2 before, when checksums, the
    #: call-site walk, the park bracket and the race detector each took a
    #: frame per member or round; 10.0 and 30.8 before that)
    SANITIZE_CALLS_PER_RANK_OP = 2.1

    def test_calls_per_rank_op(self):
        calls = _counted_storm()
        # six collectives a round, blocking and nonblocking through one entry
        assert calls["comm/group.py:ProcessGroup.rendezvous"] == (
            self.RANK_OPS * 6 // _STORM_EXCHANGES)
        per_op = sum(calls.values()) / self.RANK_OPS
        assert per_op <= self.CALLS_PER_RANK_OP, per_op
        # observers off, the lifecycle hook loops are empty: no call reaches
        # a sanitizer, tracer or capture frame (DESIGN 4u)
        assert not [key for key in calls if key.startswith(
            ("sanitize/", "trace/", "project/capture.py"))]
        # the rank entry is frame-free: no accessor, checker or generator
        # frame of its own between Communicator.<op> and the rendezvous
        for helper in ("runtime/clock.py:SimClock.time",
                       "comm/group.py:ProcessGroup.local_rank",
                       "comm/payload.py:is_spec",
                       "comm/payload.py:SpecArray.ndim",
                       "comm/communicator.py:Communicator.all_to_all.<locals>.<genexpr>"):
            assert calls[helper] == 0, helper

    def test_member_clocks_move_in_one_frame(self):
        """Beneath ``GroupTimeline.place`` a round makes the same few frames
        at any group size: one member loop over the clocks (blocking) or
        the comm streams (nonblocking) and the counters' record — no
        ``sync_to`` / ``occupy`` per member (DESIGN 4l cut 4)."""
        place = "comm/timeline.py:GroupTimeline.place"
        calls = _counted_storm(beneath=(place,))
        rounds = calls[place, place]
        # per storm round: three world rounds, two row groups' all_gather
        # and broadcast, four column groups' reduce_scatter
        assert rounds == 11 * _STORM_ROUNDS
        beneath = {callee: n for (root, callee), n in calls.items()
                   if root == place}
        assert set(beneath) == {
            place, "runtime/clock.py:SimClock.sync_all",
            "runtime/clock.py:StreamClock.occupy_all",
            "comm/counters.py:CommCounters.record"}, beneath
        assert beneath["runtime/clock.py:StreamClock.occupy_all"] == (
            _STORM_ROUNDS)  # the one nonblocking round of each storm round
        assert sum(beneath.values()) <= 3 * rounds

    #: frames beneath each warm spec finalize on the storm: itself, the
    #: price (``auto`` read from its memo entry like a fixed family), and
    #: for a derived result one ``SpecArray``
    FINALIZE_FRAMES = {
        "comm/communicator.py:all_reduce_finalize": 2,
        "comm/communicator.py:all_gather_finalize": 3,
        "comm/communicator.py:reduce_scatter_finalize": 3,
    }

    def test_spec_round_finalizes_inline(self):
        """A warm spec round checks shapes, derives its result and shares
        it inline: no shape-check, combine, split, concat or replicate frame
        runs beneath the three finalizers, and an all-reduce whose members
        agree in dtype shares local rank 0's payload (no ``SpecArray``
        built)."""
        calls = _counted_storm(runs=2, beneath=tuple(self.FINALIZE_FRAMES))
        for root, frames in self.FINALIZE_FRAMES.items():
            beneath = {callee: n for (r, callee), n in calls.items()
                       if r == root}
            finalized = beneath[root]
            assert finalized >= _STORM_ROUNDS, (root, beneath)
            assert set(beneath) <= {
                root, "comm/cost.py:CostModel.price",
                "comm/payload.py:SpecArray.__init__"}, (root, beneath)
            assert sum(beneath.values()) == frames * finalized, (root, beneath)

    #: calls into src/repro beneath one nonblocking ``wait()`` whose round
    #: has completed: the handle, ``GroupTimeline.settle``, ``sync_to`` (the
    #: exposed / overlapped terms are appended inline, DESIGN 4q)
    CALLS_PER_WAIT = 3
    #: beneath one ``sendrecv`` (the parked receiver's abort polls read the
    #: flag inline, with no frame here): one timeline frame per side
    #: (``send`` / ``arrive``) on top of the 12 a hand-inlined time rule made
    CALLS_PER_SENDRECV = 14

    def test_timeline_frame_budget(self):
        """The shared time rule costs the rank-level path one frame per
        wait, send and receive — these two counts are what a change to
        ``comm/timeline.py`` can break."""
        wait = "comm/group.py:AsyncCollectiveHandle.wait"
        sendrecv = "comm/communicator.py:Communicator.sendrecv"
        calls = _counted_storm(beneath=(wait, sendrecv))
        each = _STORM_WORLD * _STORM_ROUNDS
        assert calls[wait, wait] == calls[sendrecv, sendrecv] == each
        per_wait = sum(
            n for (root, _), n in calls.items() if root == wait) / each
        assert per_wait <= self.CALLS_PER_WAIT, per_wait
        per_sendrecv = sum(
            n for (root, _), n in calls.items() if root == sendrecv) / each
        assert per_sendrecv <= self.CALLS_PER_SENDRECV, per_sendrecv

    def test_warm_rounds_do_not_walk_the_topology(self):
        """Second identical run on one runtime: every query the storm asks
        is priced already (DESIGN 4w), so no cost formula, probe or
        ``cluster/`` walk runs — a round's pricing is its entry frames and
        one memo read."""
        calls = _counted_storm(runs=2)
        sends = calls["comm/communicator.py:Communicator.send"]
        assert sends == _STORM_WORLD * _STORM_ROUNDS
        assert calls["comm/cost.py:CostModel.p2p"] == sends
        assert not [key for key in calls if key.startswith("cluster/")]
        priced = [key for key in calls if key.startswith((
            "comm/cost.py:CostModel._ring", "comm/cost.py:CostModel._flat",
            "comm/cost.py:CostModel._two_level", "comm/cost.py:_memoised",
            "comm/cost.py:CostModel._op_cost", "comm/cost.py:CostModel._phase",
            "comm/cost.py:CostModel._eff", "comm/cost.py:CostModel._names"))]
        assert not priced, priced

    def test_observer_budget(self):
        from repro.sanitize import CommSanitizer
        from repro.trace import Tracer

        san = CommSanitizer(checksum=True, race=True)
        calls = _counted_storm(tracer=Tracer(), sanitize=san)
        assert san.rounds_checked > 0 and san.mismatches == san.desyncs == 0
        per_op = _layer_calls(calls, "sanitize") / self.RANK_OPS
        assert per_op <= self.SANITIZE_CALLS_PER_RANK_OP, per_op
        # the deadlock rule and its explanation run only in a deadlock
        parks = calls["comm/group.py:ProcessGroup._await_round"]
        assert parks >= 30 * _STORM_ROUNDS  # every blocking non-last arriver
        assert not [key for key in calls if key.endswith(
            ("SpmdRuntime.deadlocked", "CommSanitizer.on_stall"))]
        # one frame per member is the ``enter`` hook, which walks to the
        # call site itself; a spec CRC and a p2p label come off their memos
        # inline, and an all-spec round makes no race-detector frame
        enters = calls["sanitize/sanitizer.py:CommSanitizer.on_enter"]
        assert enters == self.RANK_OPS * 6 // _STORM_EXCHANGES
        assert calls["sanitize/sanitizer.py:payload_checksum"] <= 2 * 4 * 7
        assert calls["sanitize/sanitizer.py:CommSanitizer._p2p_signature"] \
            <= 2 * 4
        racing = [key for key in calls if "BufferRaceDetector" in key
                  or key.endswith(":_arrays_of")]
        assert not racing, racing
        # one rendered signature per distinct call, one file test per file
        assert calls["sanitize/spec.py:call_signature"] <= 4 * 7
        assert calls["sanitize/spec.py:_is_internal"] <= 8
        # records are built and appended in place, with no frame per record
        # unless a golden is replayed (DESIGN 4s); a p2p label is rendered
        # once per (kind, shape, dtype); a clock span costs no tracer method
        assert "sanitize/sanitizer.py:CommSanitizer._check_replay_locked" \
            not in calls
        assert calls["sanitize/spec.py:_shape_dtype"] <= (
            calls["sanitize/spec.py:call_signature"] + 2 * 4)
        assert _layer_calls(calls, "trace") == (
            calls["trace/tracer.py:Tracer.annotate"]
            + calls["trace/tracer.py:_ClockObserver.__call__"])

    def test_tracer_calls_per_round_do_not_grow_with_group_size(self):
        """A traced round's spans are built by ``GroupTimeline.mark`` and
        appended under one tracer-lock acquisition: one frame per round at
        any group size, where an ``annotate`` per member made one per rank
        (DESIGN 4s)."""
        from repro.trace import Tracer

        rounds = 4

        def counted(world):
            counter = _repro_counter()

            def prog(ctx):
                comm = Communicator.world(ctx)
                with counter.this_thread():
                    for _ in range(rounds):
                        comm.all_reduce(SpecArray((1024,), "float32"))

            tracer = Tracer()
            SpmdRuntime(uniform_cluster(world), tracer=tracer).run(
                prog, materialize=False)
            assert len(tracer.spans(cat="collective")) == rounds * world
            calls = counter.total()
            return (calls["comm/timeline.py:GroupTimeline.mark"],
                    calls["trace/tracer.py:Tracer.annotate"])

        assert counted(2) == counted(8) == (rounds, 0)

    def test_dtype_named_once_per_dtype(self):
        """numpy's ``dtype.name`` is a Python property (``_name_get`` ->
        ``issubdtype`` -> two ``issubclass_``), and ``host_pycalls_per_iter``
        cannot see it: it counts frames under ``src/repro`` only.  Beneath
        the observed storm a spec payload's checksum and signature come out
        of memos keyed by (shape, dtype), so numpy names the storm's one
        dtype at most once — it used to be ~35 k getter calls per bench
        iteration, 42 % of the iteration's Python frames (DESIGN 4s)."""
        from repro.sanitize import CommSanitizer
        from repro.trace import Tracer

        np.dtype("float32").name  # numpy's _dtype module is loaded by now
        (dtype_py,) = {m.__file__ for name, m in sys.modules.items()
                       if name.endswith("core._dtype")}
        san = CommSanitizer(checksum=True, race=True)
        calls = _counted_storm(counter=_CallCounter(dtype_py),
                               tracer=Tracer(), sanitize=san)
        assert san.rounds_checked > 0
        assert calls["_name_get"] <= 1  # float32, the storm's one dtype

    def test_callsite_still_names_the_user_frame(self):
        """The per-file memo decides *which* frames are internal; the line
        reported is still read off the live frame, call by call."""
        import inspect

        from repro.sanitize.errors import CollectiveMismatch

        lines = {}

        def prog(ctx):
            comm = Communicator.world(ctx)
            for _ in range(2):  # same file, same signature: both memoised
                comm.all_reduce(SpecArray((4,), "float32"))
            lines[ctx.rank] = inspect.currentframe().f_lineno + 1
            comm.all_reduce(SpecArray((4 + ctx.rank,), "float32"))

        rt = SpmdRuntime(uniform_cluster(2), sanitize=True)
        with pytest.raises(RemoteRankError) as exc:
            rt.run(prog, materialize=False)
        err = exc.value.__cause__
        assert isinstance(err, CollectiveMismatch)
        assert err.callsites == {
            rank: f"tests/test_perf_guard.py:{lines[rank]} in prog"
            for rank in range(2)}


# -- planning: score the term, not the candidate ----------------------------


def _repro_calls(fn):
    """``fn()`` on this thread: (the calls it made into ``src/repro``, its
    result)."""
    counter = _repro_counter()
    with counter.this_thread():
        out = fn()
    return counter.total(), out


# -- runtime: a symmetric world runs one program (DESIGN §4ab) ---------------


@pytest.fixture
def started(monkeypatch):
    """The names of the rank threads a run starts."""
    names = []
    start = threading.Thread.start

    def counted(thread):
        if thread.name.startswith("spmd-rank-"):
            names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return names


#: ``bench/workloads/collectives.py``'s storm, copied (with fewer rounds):
#: it reads its rank before its first exchange
_BENCH_WORLD, _BENCH_ROW, _BENCH_ROUNDS = 8, 4, 4
_BENCH_ELEMS = (4096, 65536, 524288, 4194304)


def _bench_storm(ctx):
    world = Communicator.world(ctx)
    r = ctx.rank
    row = world.subgroup(range(r - r % _BENCH_ROW, r - r % _BENCH_ROW + _BENCH_ROW))
    col = world.subgroup(range(r % _BENCH_ROW, _BENCH_WORLD, _BENCH_ROW))
    t0 = ctx.clock.time
    for i in range(_BENCH_ROUNDS):
        n = _BENCH_ELEMS[i % len(_BENCH_ELEMS)]
        x = SpecArray((n,), "float32")
        world.all_reduce(x)
        row.all_gather(x)
        col.reduce_scatter(x)
        row.broadcast(x if row.rank == 0 else None)
        handle = world.iallreduce(x)
        world.all_to_all(
            [SpecArray((n // _BENCH_WORLD,), "float32") for _ in range(_BENCH_WORLD)])
        world.sendrecv(x, (r + 1) % _BENCH_WORLD, (r - 1) % _BENCH_WORLD, tag=i)
        handle.wait()
    return ctx.clock.time - t0


class TestRepresentativeRun:
    """An 8-rank spec step whose ranks never differ runs once, on rank 0's
    thread; a program that reads its rank at once runs on every thread."""

    def test_symmetric_ddp_step_starts_one_program_thread(self, started, monkeypatch):
        """The launched step (DESIGN §4ae), checkpointed, as overlapped DDP."""
        from repro import launch
        from repro.autopar.compiler import Workload, launched_program
        from repro.cluster import system_ii

        issued, sync = [], DistributedDataParallel.sync  # buckets in flight as backward ends
        monkeypatch.setattr(DistributedDataParallel, "sync", lambda self: (
            issued.append((len(self._pending), all(self._flushed))), sync(self)))
        rt = SpmdRuntime(system_ii(), 8)
        # wide enough that the default 25 MiB buckets split several ways
        fn = launched_program(Workload(n_layers=4, hidden=2048, n_heads=16, seq_len=8), 16,
                              checkpoint=True)
        steps = launch(dict(comm=dict(overlap=True)), rt.cluster, fn, runtime=rt, materialize=False)
        [(in_flight, all_issued)] = issued
        assert in_flight > 1 and all_issued
        assert started == ["spmd-rank-0"]
        assert (rt.path, rt.reason) == ("representative", None)
        assert len(set(steps)) == 1 and len({c.time for c in rt.clocks}) == 1

    def test_captured_dp_probe_starts_one_program_thread(self, started):
        from repro.autopar.probe import build_probe
        from repro.autopar.search import StrategyCandidate, Workload
        from repro.cluster import system_ii
        from repro.project import capture_run

        work = Workload(n_layers=16, hidden=3072, n_heads=48, seq_len=196)
        cand = StrategyCandidate(data=8, tensor=1, mode="none", pipeline=1)
        _, fn = build_probe(work, cand, 256, 0.1)
        _, trace = capture_run(system_ii(), fn, world_size=8)
        assert started == ["spmd-rank-0"]
        assert len({tuple(stream) for stream in trace.streams}) == 1

    def test_bench_storm_starts_every_thread_naming_the_read(self, started):
        from repro.cluster import system_ii

        rt = SpmdRuntime(system_ii(), _BENCH_WORLD, comm_algorithm="auto",
                         comm_overlap=True)
        rt.run(_bench_storm, materialize=False, seed=1)
        assert sorted(started) == [f"spmd-rank-{r}" for r in range(_BENCH_WORLD)]
        assert (rt.path, rt.reason) == ("caught_up", "read of ctx.rank")


class TestPlanHostCost:
    """What one candidate and one replayed event cost (DESIGN 4m), counted
    not timed."""

    #: calls into src/repro of the System II / 8-rank Fig-11 compile,
    #: enumeration and ranking included.  Read 4 969 over 336 candidates;
    #: 6 476 over 710 (9.12 per candidate) while the search still offered
    #: ZeRO-3 and overlap on tensor / pipeline layouts.  Pricing every
    #: candidate whole behind an op-price memo read 37.6 per candidate
    COMPILE_CALLS = 5400
    #: pricing calls (``analytic/`` + ``autopar/scoring.py``) of that
    #: compile, and the distinct terms its table holds.  Read 1 700 and
    #: 288; 2 785 and 297 over the 710-candidate search
    PRICING_CALLS = 1850
    TERMS = 297
    #: calls per event of a recorded replay; read 0.66 with one clock frame
    #: per run of advances, 1.55 with one per advance, and 3.37 when every
    #: advance went through two frames of its own
    CALLS_PER_EVENT = 0.8
    #: ``cluster/`` calls of a cold System IV / 64-rank compile: the first
    #: walk of each distinct rank group.  Read 3 382, over 1 714 candidates
    #: and over the 4 248 of the wider search alike; 8.16 per candidate when
    #: the walks paid a frame or three per member pair
    CLUSTER_CALLS = 3382
    #: ``cluster/`` calls per member of a cold 256-GPU System III world
    #: all-reduce priced under ring, hierarchical and tree (DESIGN §4ad):
    #: one route row per member plus a path walk per ring hop.  Read 3.80;
    #: 262 when every member pair paid a search of its own
    CLUSTER_CALLS_PER_MEMBER = 4.5

    @pytest.fixture(scope="class")
    def compiled(self):
        from repro.autopar import Workload, compile_strategy
        from repro.cluster import system_ii

        # a workload of its own: nothing has read its parameter count yet
        work = Workload(n_layers=16, hidden=3072, n_heads=48, seq_len=196)
        cluster = system_ii()
        calls, cs = _repro_calls(lambda: compile_strategy(
            cluster, work, 256, world_size=8, refine=False))
        return calls, cs, work, cluster

    def test_calls_per_scored_candidate(self, compiled):
        calls, cs, _, _ = compiled
        scored = len(cs.report.scored)
        assert scored > 300, "compile no longer exercises the search"
        assert calls["autopar/scoring.py:score_candidate"] == scored
        assert sum(calls.values()) <= self.COMPILE_CALLS, sum(calls.values())

    def test_cold_walks_per_scored_candidate(self):
        from repro.autopar import Workload, compile_strategy
        from repro.cluster import system_iv

        work = Workload(n_layers=16, hidden=3072, n_heads=48, seq_len=196)
        cluster = system_iv()  # a fresh link graph: every walk is cold
        calls, cs = _repro_calls(lambda: compile_strategy(
            cluster, work, 512, world_size=64, refine=False))
        assert len(cs.report.scored) > 1500, "compile no longer exercises the search"
        walks = sum(n for key, n in calls.items() if key.startswith("cluster/"))
        assert walks <= self.CLUSTER_CALLS, walks

    def test_cold_world_prices_one_row_per_member(self):
        from repro.cluster import system_iii
        from repro.comm.cost import CostModel

        world = 256
        cost = CostModel(system_iii(n_nodes=world // 4))  # a cold link graph
        calls, _ = _repro_calls(lambda: [
            cost.allreduce(list(range(world)), 1 << 26, algorithm=algorithm)
            for algorithm in ("ring", "hierarchical", "tree")])
        walks = sum(n for key, n in calls.items() if key.startswith("cluster/"))
        assert walks / world <= self.CLUSTER_CALLS_PER_MEMBER, walks / world
        assert calls["cluster/topology.py:Topology._row"] == world

    def test_workload_constants_once_per_compile(self, compiled):
        calls = compiled[0]
        assert calls["analytic/memory_model.py:transformer_param_count"] <= 2

    def test_pricing_grows_with_distinct_terms(self, compiled):
        from repro.autopar import score_candidate
        from repro.autopar.scoring import _CostCache

        calls, cs, work, cluster = compiled
        table = _CostCache(cluster)
        for s in cs.report.scored:
            score_candidate(cluster, work, s.candidate, 256, table)
        assert len(table) <= self.TERMS, "the search shares fewer terms"
        pricing = sum(n for key, n in calls.items() if key.startswith(
            ("analytic/", "autopar/scoring.py:")))
        assert pricing <= self.PRICING_CALLS, (pricing, len(table))

    @pytest.fixture(scope="class")
    def trace(self):
        from repro.context import ParallelMode
        from repro.parallel.data import sync_gradients
        from repro.project import capture_run

        config = Config.from_dict(dict(
            parallel=dict(pipeline=2), num_microbatches=2))

        def step(ctx):
            pc = ParallelContext(ctx, config)
            stage = TransformerLayer(64, 4)
            GPipeSchedule(pc, 2).run(
                stage,
                SpecArray((4, 8, 64), "float32")
                if pc.is_first_pipeline_stage() else None,
                None,
                (lambda out, y: out.sum())
                if pc.is_last_pipeline_stage() else None)
            sync_gradients(stage.parameters(), pc.comm(ParallelMode.DATA))

        _, trace = capture_run(uniform_cluster(4), step, world_size=4)
        return trace

    def test_calls_per_replayed_event(self, trace):
        from repro.project import project

        calls, report = _repro_calls(lambda: project(trace, mode="recorded"))
        assert report.step_time == trace.max_time
        events = trace.event_count()
        assert events > 200, "capture no longer exercises the sweep"
        per_event = sum(calls.values()) / events
        assert per_event <= self.CALLS_PER_EVENT, per_event

    def test_labelled_advances_still_annotate(self, trace):
        from repro.project import project
        from repro.trace import Tracer

        tracer = Tracer()
        calls, _ = _repro_calls(
            lambda: project(trace, mode="recorded", tracer=tracer))
        labelled = collections.Counter(
            (rank, ev[1], ev[3])
            for rank, stream in enumerate(trace.streams)
            for ev in stream if ev[0] == "a" and ev[3] is not None)
        assert sum(labelled.values()) > 200
        annotations = [s for s in tracer.spans() if s.kind == "annotation"]
        # a round's spans, which carry its retry count, are made by its
        # ``mark`` in place; every other annotation is one ``annotate``
        by_mark = [s for s in annotations if "retries" in s.args]
        assert by_mark, "the replay no longer marks its rounds"
        assert calls["trace/tracer.py:Tracer.annotate"] == (
            len(annotations) - len(by_mark))
        assert labelled == collections.Counter(
            (s.rank, s.cat, s.name) for s in annotations
            if s.cat not in ("collective", "p2p", "comm_stream", "overlap"))


# -- materialized training: what one real op and one ZeRO step cost ----------


class TestRealStepHostCost:
    #: best-of-5 cost of a real GELU forward + backward on an all-negative
    #: [32, 256] float32 payload over the all-positive one.  Reads 1.0-1.2;
    #: 22-27 while the cube was ``x**3``, whose negative bases left numpy's
    #: SIMD loop for a scalar ``pow`` (DESIGN 4v)
    GELU_SIGN_RATIO = 3.0
    #: calls into src/repro beneath the twelve ``train_step``s (4 ranks x 3
    #: steps) of the train golden's ``zero_offload_real4``, read while the
    #: cube was ``x**3``; the ``_gelu_inner`` helper adds one frame per real
    #: GELU forward or backward (72 here: 12 269)
    ZERO_STEP_CALLS = 12197

    def test_gelu_cost_does_not_depend_on_sign(self):
        from repro.autograd import payload_ops as P

        x = np.abs(np.random.default_rng(3).standard_normal(
            (32, 256))).astype(np.float32) + np.float32(0.01)
        g = np.ones_like(x)

        def best(payload):
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                P.pgelu(payload)
                P.pgelu_grad(payload, g)
                times.append(time.perf_counter() - t0)
            return min(times)

        best(x)  # warm numpy's loops
        ratio = best(-x) / best(x)
        assert ratio <= self.GELU_SIGN_RATIO, ratio

    def test_zero_train_step_calls(self, monkeypatch):
        from test_train_golden import zero_offload_real4

        from repro.zero import ZeroOffloadEngine

        counter = _repro_counter()
        step = ZeroOffloadEngine.train_step

        def counted(self, *args, **kwargs):
            with counter.this_thread():
                return step(self, *args, **kwargs)

        monkeypatch.setattr(ZeroOffloadEngine, "train_step", counted)
        zero_offload_real4()
        calls = counter.total()
        assert calls["zero/engine.py:ZeroOffloadEngine.train_step"] == 12
        total = sum(calls.values())
        assert total <= 1.05 * self.ZERO_STEP_CALLS, total


# ---------------------------------------------------------------------------
# 8. the import surface
# ---------------------------------------------------------------------------


def test_import_repro_loads_numpy_and_nothing_else():
    import repro

    probe = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import repro\n"
        # on disk: the Cython runtime numpy.random registers has no file
        "new = {name.partition('.')[0] for name, m in sys.modules.items()"
        " if name not in before and getattr(m, '__file__', None)}\n"
        "print(*sorted(new - set(sys.stdlib_module_names)"
        " - {'repro', 'numpy'}))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == [], (
        f"`import repro` pulled in {out.stdout.split()}: every process pays "
        "for it in setup_s and host_peak_rss_mb (networkx was 160 ms and "
        "20 MiB for one shortest_path call; scipy went the same way)")
