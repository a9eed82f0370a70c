"""Direct unit tests for CommCounters and the typed runtime errors."""

import numpy as np
import pytest

from repro.cluster import uniform_cluster
from repro.comm import CommCounters, Communicator
from repro.faults import FaultPlan
from repro.runtime import SpmdRuntime
from repro.runtime.errors import (
    CollectiveTimeout,
    RankFailure,
    RemoteRankError,
    SpmdAborted,
)
from repro.utils import RetryPolicy


class TestCommCounters:
    def test_record_accumulates(self):
        c = CommCounters()
        c.record("all_reduce", 100, 25)
        c.record("all_reduce", 100, 25)
        c.record("broadcast", 40, 10)
        assert c.bytes_total == 240
        assert c.elements_total == 60
        assert c.calls_total == 3
        assert c.by_op_bytes == {"all_reduce": 200, "broadcast": 40}
        assert c.by_op_elements == {"all_reduce": 50, "broadcast": 10}
        assert c.by_op_calls == {"all_reduce": 2, "broadcast": 1}

    def test_record_retry_counts_wire_but_not_calls(self):
        c = CommCounters()
        c.record("all_reduce", 100, 25)
        c.record_retry("all_reduce", 200, 50, attempts=2)
        # retransmitted bytes really cross the wire...
        assert c.bytes_total == 300
        assert c.elements_total == 75
        assert c.by_op_bytes == {"all_reduce": 300}
        # ...but the call still succeeds exactly once
        assert c.calls_total == 1
        assert c.retries_total == 2
        assert c.retry_bytes_total == 200
        assert c.by_op_retries == {"all_reduce": 2}

    def test_reset_clears_everything(self):
        c = CommCounters()
        c.record("p2p", 10, 2)
        c.record_retry("p2p", 10, 2)
        c.reset()
        assert c.bytes_total == 0
        assert c.calls_total == 0
        assert c.retries_total == 0
        assert c.retry_bytes_total == 0
        assert c.by_op_bytes == {}
        assert c.by_op_retries == {}


class TestCommunicatorIntrospection:
    """``counters`` and ``__repr__`` had landed on a receive handle: the
    communicator had neither and the handle's ``repr`` raised."""

    def test_counters_and_reprs(self):
        def prog(ctx):
            comm = Communicator.world(ctx)
            comm.all_reduce(np.ones(4, dtype=np.float32))
            sent = comm.isend(np.ones(2, dtype=np.float32), (ctx.rank + 1) % 2,
                              tag="t")
            reprs = repr(comm), repr(sent)
            sent.wait()
            comm.recv((ctx.rank - 1) % 2, tag="t")
            return comm.counters is comm.group.counters, reprs, repr(sent)

        rt = SpmdRuntime(uniform_cluster(2))
        for rank, (shared, reprs, done) in enumerate(rt.run(prog)):
            assert shared
            assert reprs == (
                f"Communicator(rank={rank}/2, group=[0, 1])",
                f"StreamSendHandle(dst={1 - rank}, done=False)",
            )
            assert done == f"StreamSendHandle(dst={1 - rank}, done=True)"
        assert rt.world_group.counters.by_op_calls == {
            "all_reduce": 1, "p2p": 2}


class TestFailedRoundsAreReleased:
    """Every member of a failed round claims its error and the last claimer
    deletes the round, whatever failed it (the mixed-mode case, where the
    last claimer can be the mismatching rank itself, sits next to its
    sibling in ``test_overlap_parity``)."""

    def _run(self, call, **runtime_kwargs):
        def prog(ctx):
            comm = Communicator.world(ctx)
            try:
                call(ctx, comm)
            except RuntimeError as err:
                return type(err).__name__
            return None

        rt = SpmdRuntime(uniform_cluster(3), **runtime_kwargs)
        return rt, rt.run(prog)

    @pytest.mark.parametrize("nonblocking", [False, True])
    def test_sanitizer_mismatch(self, nonblocking):
        def call(ctx, comm):
            x = np.ones(4 + (ctx.rank == 2), dtype=np.float32)
            if nonblocking:
                comm.iallreduce(x).wait()
            else:
                comm.all_reduce(x)

        rt, errors = self._run(call, sanitize=True)
        assert errors == ["CollectiveMismatch"] * 3
        assert rt.world_group._rounds == {}

    @pytest.mark.parametrize("nonblocking", [False, True])
    def test_permanent_timeout(self, nonblocking):
        def call(ctx, comm):
            x = np.ones(4, dtype=np.float32)
            if nonblocking:
                comm.iall_gather(x).wait()
            else:
                comm.all_gather(x)

        rt, errors = self._run(
            call, fault_plan=FaultPlan(seed=1).blackout(op="all_gather"))
        assert errors == ["CollectiveTimeout"] * 3
        assert rt.world_group._rounds == {}
        assert rt.world_group.counters.retries_total == (
            rt.retry_policy.max_retries + 1)

    def test_failed_handle_keeps_raising(self):
        """A failed nonblocking round stays failed: every later ``wait()``
        on its handle raises the round's error again (it used to return
        ``None``, as if the op had succeeded); ``test()`` stays ``True``."""
        def call(ctx, comm):
            handle = comm.iallreduce(
                np.ones(4 + (ctx.rank == 2), dtype=np.float32))
            with pytest.raises(ValueError, match="mismatched shapes") as first:
                handle.wait()
            assert handle.test()
            with pytest.raises(ValueError) as again:
                handle.wait()
            assert again.value is first.value

        rt, errors = self._run(call)
        assert errors == [None] * 3
        assert rt.world_group._rounds == {}


class TestTypedErrors:
    def test_rank_failure_attributes(self):
        e = RankFailure(3, step=7)
        assert e.rank == 3 and e.step == 7 and e.sim_time is None
        assert "rank 3" in str(e) and "step 7" in str(e)

        e = RankFailure(1, sim_time=0.25)
        assert e.rank == 1 and e.step is None and e.sim_time == 0.25
        assert "0.25" in str(e)

    def test_collective_timeout_attributes(self):
        e = CollectiveTimeout("all_reduce", [0, 1, 2], attempts=5)
        assert e.op == "all_reduce"
        assert e.ranks == (0, 1, 2)  # normalized to a tuple
        assert e.attempts == 5
        assert "all_reduce" in str(e) and "5 failed attempts" in str(e)

        e = CollectiveTimeout("recv", (0, 1))  # a deadlock's verdict
        assert e.attempts == 0 and not hasattr(e, "timeout")
        assert "every live rank is parked" in str(e)

    def test_error_hierarchy(self):
        # chaos code catches RuntimeError as the common supertype
        for err in (RankFailure(0, step=1),
                    CollectiveTimeout("p2p", (0, 1)),
                    SpmdAborted(1, ValueError("x")),
                    RemoteRankError(2, ValueError("x"))):
            assert isinstance(err, RuntimeError)


class TestRetryPolicy:
    def test_backoff_schedule(self):
        p = RetryPolicy(max_retries=3, backoff_base=1e-4,
                        backoff_factor=2.0, backoff_cap=3e-4)
        assert p.backoff(0) == 0.0
        assert p.backoff(1) == pytest.approx(1e-4)
        assert p.backoff(2) == pytest.approx(2e-4)
        assert p.backoff(3) == pytest.approx(3e-4)  # capped
        assert p.backoff(9) == pytest.approx(3e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
