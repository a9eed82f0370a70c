"""Process groups and the collective rendezvous.

A :class:`ProcessGroup` is the meeting point for a fixed set of global ranks.
Collectives are sequence-numbered per group (MPI semantics: all members must
issue group collectives in the same order); each call forms a *round* that
completes when every member has arrived, at which point the last arriver

1. combines the payloads (the actual data movement/arithmetic),
2. computes the call's cost from the cost model,
3. synchronizes all member clocks to ``max(entry times) + cost``, and
4. records wire traffic in the group's counters.

The rendezvous is event-driven: waiters park on the group condition and the
last arriver (or the abort path via ``SpmdRuntime._wake_all``) notifies them
— there is no poll tick.  One failing rank therefore aborts everyone
immediately instead of at the next poll interval.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.comm.cost import CollectiveCost, CostModel
from repro.comm.counters import CommCounters
from repro.runtime.errors import CollectiveTimeout

#: With a sanitizer installed, parked waiters still wake on this cadence to
#: run ``check_stalled`` — it is the sanitizer's desync-diagnosis latency,
#: not a liveness mechanism (completion and abort are notify-driven).
_DIAG_WINDOW = 0.05

#: shared empty trace-tag mapping — rounds only swap in a real dict when the
#: sanitizer contributes tags, so the disabled path allocates nothing extra
_NO_EXTRA: Dict[str, Any] = {}

#: finalize(payloads by local rank) ->
#:   (results by local rank, cost, op name, itemsize for element accounting)
FinalizeFn = Callable[
    [Dict[int, Any]], Tuple[Dict[int, Any], CollectiveCost, str, int]
]


class _Round:
    __slots__ = (
        "payloads", "entry_times", "results", "done", "claimed", "error",
        "op", "t_start", "t_end", "wire_bytes", "retries", "retry_seconds",
        "algorithm", "specs", "trace_extra", "mode",
    )

    def __init__(self) -> None:
        self.payloads: Dict[int, Any] = {}
        self.entry_times: Dict[int, float] = {}
        self.results: Optional[Dict[int, Any]] = None
        self.done = False
        self.claimed = 0
        self.error: Optional[BaseException] = None
        # trace annotations filled in by the finalizer
        self.op: Optional[str] = None
        self.t_start = 0.0
        self.t_end = 0.0
        self.wire_bytes = 0
        self.retries = 0
        self.retry_seconds = 0.0
        self.algorithm = ""
        # sanitizer state: per-local-rank CollectiveSpec, extra span tags
        self.specs: Optional[Dict[int, Any]] = None
        self.trace_extra: Dict[str, Any] = _NO_EXTRA
        # "sync" (blocking rendezvous) or "async" (handle-based); set by the
        # first arriver — mixing the two in one round is a program error
        self.mode: Optional[str] = None


class WorkHandle:
    """Handle for a nonblocking communication operation.

    ``wait()`` completes the op and reconciles the caller's compute clock by
    *max-join*: the clock jumps to the op's completion time if it has not
    already passed it, charging only the exposed remainder as ``comm``.
    ``test()`` polls completion without blocking or charging time.
    """

    __slots__ = ()

    def wait(self) -> Any:
        raise NotImplementedError

    def test(self) -> bool:
        raise NotImplementedError


class ProcessGroup:
    """A fixed, ordered set of global ranks with collective state.

    Create via ``runtime.group(ranks)`` (idempotent) — never directly, or
    different ranks would rendezvous on different objects.
    """

    def __init__(self, runtime: Any, ranks: List[int]) -> None:
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in group: {ranks}")
        self.runtime = runtime
        self.ranks = list(ranks)
        self.size = len(ranks)
        self._local = {g: i for i, g in enumerate(ranks)}
        self.cost_model = CostModel(
            runtime.cluster,
            algorithm=getattr(runtime, "comm_algorithm", "ring"),
            island_ratio=getattr(runtime, "comm_island_ratio", 0.5),
        )
        self.counters = CommCounters()
        self._cond = threading.Condition()
        self._rounds: Dict[int, _Round] = {}
        self._seq: Dict[int, int] = {r: 0 for r in ranks}
        #: simulated time this group's comm stream drains: every collective
        #: (blocking or nonblocking) serializes after it, NCCL-stream-style
        self.async_tail = 0.0
        #: per-sender p2p stream tails (only the owning rank's thread writes
        #: its key; pre-populated so concurrent reads never resize the dict)
        self._p2p_tails: Dict[int, float] = {g: 0.0 for g in ranks}

    def local_rank(self, global_rank: int) -> int:
        try:
            return self._local[global_rank]
        except KeyError:
            raise ValueError(
                f"rank {global_rank} is not a member of group {self.ranks}"
            ) from None

    def global_rank(self, local_rank: int) -> int:
        return self.ranks[local_rank]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessGroup(ranks={self.ranks})"

    def reset_rounds(self) -> None:
        """Discard in-flight rendezvous state and restart sequence numbers
        (called between runs so an aborted program leaves no stale rounds)."""
        with self._cond:
            self._rounds.clear()
            self._seq = {r: 0 for r in self.ranks}
            self.async_tail = 0.0
            for g in self.ranks:
                self._p2p_tails[g] = 0.0
            self._cond.notify_all()

    # ------------------------------------------------------------------

    def rendezvous(self, my_global_rank: int, payload: Any,
                   finalize: FinalizeFn, spec: Any = None) -> Any:
        """Enter a collective round; returns this rank's share of the result.

        ``finalize`` must be logically identical on all ranks; the last
        arriver's instance runs.  ``spec`` (a
        :class:`~repro.sanitize.spec.CollectiveSpec`, built by the
        communicator only when a sanitizer is installed) declares what this
        rank believes the call to be; the sanitizer cross-checks the specs
        when the round fills.

        On the healthy path a rank makes no call of its own below this frame
        except :meth:`_await_round` when it has to park — the membership,
        mode and claim bookkeeping is inline on purpose (DESIGN 4l).
        """
        runtime = self.runtime
        me = self._local.get(my_global_rank)
        if me is None:
            self.local_rank(my_global_rank)  # raises: not a member
        clock = runtime.clocks[my_global_rank]
        if runtime.fault_injector is not None:
            runtime.fault_injector.check_time_crash(my_global_rank, clock.time)
        tracer = runtime.tracer
        seq = self._seq[my_global_rank]
        if spec is not None:
            spec.seq = seq

        if self.size == 1:
            san = runtime.sanitizer
            t0 = clock.time
            extra: Dict[str, Any] = _NO_EXTRA
            if san is not None:
                san.verify_round(self, seq, {0: spec} if spec else None)
            results, cost, op, itemsize = finalize({0: payload})
            if san is not None:
                extra = san.finish_round(
                    self, seq, {0: spec} if spec else None,
                    {0: payload}, results,
                )
                self._seq[my_global_rank] += 1
            if self.async_tail > clock.time:
                clock.sync_to(self.async_tail, "comm")
            clock.advance(cost.seconds, "comm")
            self.async_tail = clock.time
            if cost.wire_bytes:
                self.counters.record(
                    op, cost.wire_bytes, cost.wire_elements(itemsize),
                    algorithm=cost.algorithm,
                )
            cap = runtime.capture
            if cap is not None:
                cap.record_solo(my_global_rank, self, op, cost, itemsize, payload)
            if tracer is not None:
                tracer.annotate(
                    my_global_rank, "collective", op, t0, clock.time,
                    wire_bytes=cost.wire_bytes, group_size=1, primary=True,
                    algo=cost.algorithm, **extra,
                )
            return results[0]

        self._seq[my_global_rank] = seq + 1
        with self._cond:
            rnd = self._rounds.get(seq)
            if rnd is None:
                rnd = self._rounds[seq] = _Round()
            if rnd.mode is None:
                rnd.mode = "sync"
            elif rnd.mode != "sync":
                self._fail_mixed_mode(rnd, seq, "sync")
            rnd.payloads[me] = payload
            rnd.entry_times[me] = clock.time
            if spec is not None:
                if rnd.specs is None:
                    rnd.specs = {}
                rnd.specs[me] = spec

            if rnd.done:
                # The round already failed (a sanitizer desync verdict)
                # while this rank was on its way; claim the error below.
                pass
            elif len(rnd.payloads) == self.size:
                self._finalize_round(rnd, seq, finalize)
            else:
                self._await_round(my_global_rank, seq, rnd, spec, clock)

            if rnd.error is not None:
                self._claim(rnd, seq)
                raise rnd.error
            result = rnd.results[me]
            cap = runtime.capture
            if cap is not None:
                cap.record_member(my_global_rank, self, seq, "c")
            if tracer is not None and rnd.op is not None:
                # one span per member rank, from its own entry to the common
                # completion; local rank 0's span carries the round totals
                tracer.annotate(
                    my_global_rank, "collective", rnd.op,
                    rnd.entry_times[me], rnd.t_end,
                    wire_bytes=rnd.wire_bytes, group_size=self.size,
                    retries=rnd.retries, primary=(me == 0),
                    algo=rnd.algorithm, **rnd.trace_extra,
                )
                if rnd.retries:
                    tracer.annotate(
                        my_global_rank, "retry", f"{rnd.op}:retry",
                        rnd.t_end - rnd.retry_seconds, rnd.t_end,
                        attempts=rnd.retries,
                    )
            rnd.claimed += 1
            if rnd.claimed == self.size:
                del self._rounds[seq]
            return result

    # ------------------------------------------------------------------

    def _await_round(self, my_global_rank: int, seq: int, rnd: "_Round",
                     spec: Any, clock: Any) -> None:
        """Park (group condition held) until ``rnd``, not yet done, completes.

        Shared by the blocking rendezvous and :meth:`AsyncCollectiveHandle.wait`.
        Completion and abort are notify-driven (the last arriver and
        ``SpmdRuntime._wake_all`` call ``notify_all``); with a sanitizer
        installed the wait is additionally chopped into ``_DIAG_WINDOW``
        slices, and ``check_stalled`` walks the wait-for graph whenever a
        slice expires or a wake arrives without completion — never on the
        way into the park, so a healthy round pays nothing for it and a
        desync is still convicted within one window (an exiting rank wakes
        its peers, which makes that diagnosis immediate).  The deadline is
        measured against a monotonic start timestamp, so wake-ups before
        the timeout do not undercount elapsed time.
        """
        runtime = self.runtime
        san = runtime.sanitizer
        tracer = runtime.tracer
        deadline_ts = time.monotonic() + runtime.deadlock_timeout
        if san is not None:
            san.enter_wait(my_global_rank, self, seq, spec, rnd)
        try:
            while True:
                if runtime.aborting():
                    runtime.check_abort()
                remaining = deadline_ts - time.monotonic()
                if remaining <= 0:
                    raise CollectiveTimeout(
                        "collective", self.ranks,
                        timeout=runtime.deadlock_timeout,
                    )
                self._cond.wait(
                    remaining if san is None else min(remaining, _DIAG_WINDOW)
                )
                if rnd.done:
                    return
                if san is not None:
                    err = san.check_stalled(self, seq, rnd)
                    if err is not None:
                        rnd.error = err
                        rnd.done = True
                        self._cond.notify_all()
                        if tracer is not None:
                            tracer.instant(
                                my_global_rank,
                                f"sanitizer:{type(err).__name__}",
                                clock.time,
                            )
                        return
        finally:
            if san is not None:
                san.exit_wait(my_global_rank)

    def wake(self) -> None:
        """Wake every thread parked in this group's rendezvous so it
        re-checks abort/done state (called by ``SpmdRuntime._wake_all``)."""
        with self._cond:
            self._cond.notify_all()

    def _claim(self, rnd: _Round, seq: int) -> None:
        """Count one member's claim on a failed round (it is about to raise
        the error); the last member to claim deletes the round.  Every
        failing exit comes through here — the healthy exits count their
        claim inline, being on the per-rank path."""
        rnd.claimed += 1
        if rnd.claimed == self.size:
            del self._rounds[seq]

    def _fail_mixed_mode(self, rnd: _Round, seq: int, mode: str) -> None:
        """All ranks of a round must agree on blocking vs nonblocking: for a
        nonblocking round, *handle completion* (not issue order) defines the
        rendezvous point, so a blocking caller mixed into it would have its
        clock synced under the wrong semantics.  Fail the round for everyone
        rather than silently mis-pricing it."""
        err = RuntimeError(
            f"collective on group {self.ranks} mixes blocking and "
            f"nonblocking calls across ranks (round is {rnd.mode!r}, "
            f"this rank called {mode!r})"
        )
        if not rnd.done:
            rnd.error = err
            rnd.done = True
            self._cond.notify_all()
        self._claim(rnd, seq)
        raise err

    def rendezvous_async(self, my_global_rank: int, payload: Any,
                         finalize: FinalizeFn, spec: Any = None) -> "WorkHandle":
        """Enter a collective round without blocking.

        The round finalizes inline on whichever rank *issues* it last (per-
        rank program order makes that deterministic in simulated time); the
        collective then occupies the group's comm stream from
        ``max(async_tail, max issue times)`` for its priced cost.  No
        compute clock moves at finalize — each member reconciles when it
        waits the returned handle (max-join).  Byte/cost accounting is
        identical to the blocking rendezvous.
        """
        runtime = self.runtime
        me = self._local.get(my_global_rank)
        if me is None:
            self.local_rank(my_global_rank)  # raises: not a member
        now = runtime.clocks[my_global_rank].time
        if runtime.fault_injector is not None:
            runtime.fault_injector.check_time_crash(my_global_rank, now)
        seq = self._seq[my_global_rank]
        self._seq[my_global_rank] = seq + 1
        if spec is not None:
            spec.seq = seq

        with self._cond:
            rnd = self._rounds.get(seq)
            if rnd is None:
                rnd = self._rounds[seq] = _Round()
            if rnd.mode is None:
                rnd.mode = "async"
            elif rnd.mode != "async":
                self._fail_mixed_mode(rnd, seq, "async")
            rnd.payloads[me] = payload
            rnd.entry_times[me] = now
            if spec is not None:
                if rnd.specs is None:
                    rnd.specs = {}
                rnd.specs[me] = spec
            cap = runtime.capture
            if cap is not None:
                cap.record_member(my_global_rank, self, seq, "ic")
            if not rnd.done and len(rnd.payloads) == self.size:
                self._finalize_round(rnd, seq, finalize)
            return AsyncCollectiveHandle(self, seq, me, my_global_rank, spec)

    def _finalize_round(self, rnd: _Round, seq: int,
                        finalize: FinalizeFn) -> None:
        """The last arriver's work, on behalf of every member (group
        condition held): sanitizer verify/race -> ``finalize`` -> injector
        verdict and retry pricing -> time -> counters -> sanitizer finish ->
        capture.  The one difference between the two kinds of round is
        where the time goes: a blocking round syncs every member's compute
        clock to its end, a nonblocking one occupies their comm streams and
        leaves the clocks to each ``wait()``.  Any failure becomes the
        round's error, which every member then claims.
        """
        runtime = self.runtime
        injector = runtime.fault_injector
        san = runtime.sanitizer
        race_token = None
        try:
            if san is not None:
                san.verify_round(self, seq, rnd.specs)
                race_token = san.race_acquire(self, rnd.payloads)
            results, cost, op, itemsize = finalize(rnd.payloads)
            failures, permanent = 0, False
            retry_seconds = 0.0
            if injector is not None:
                failures, permanent = injector.collective_verdict(
                    op, self.ranks, seq
                )
                if (failures or permanent) and san is not None:
                    san.note_injected_glitch(op, self.ranks, failures, permanent)
                if permanent:
                    # Exhaust the full retransmission budget, then give
                    # up: every member raises the timeout.
                    failures = runtime.retry_policy.max_retries + 1
                if failures:
                    policy = runtime.retry_policy
                    for a in range(1, failures + 1):
                        retry_seconds += cost.seconds + policy.backoff(a)
                    self.counters.record_retry(
                        op,
                        failures * cost.wire_bytes,
                        failures * cost.wire_elements(itemsize),
                        attempts=failures,
                    )
            # every round, blocking or not, serializes after whatever is in
            # flight on this group's comm stream
            t_start = max(rnd.entry_times.values())
            if self.async_tail > t_start:
                t_start = self.async_tail
            if permanent:
                t_end = t_start + retry_seconds
            else:
                t_end = t_start + cost.seconds + retry_seconds
            self.async_tail = t_end
            if rnd.mode == "sync":
                for g in self.ranks:
                    runtime.clocks[g].sync_to(t_end, "comm")
            else:
                for g in self.ranks:
                    runtime.comm_streams[g].occupy(t_start, t_end)
            if permanent:
                raise CollectiveTimeout(op, self.ranks, attempts=failures)
            if cost.wire_bytes:
                self.counters.record(
                    op, cost.wire_bytes, cost.wire_elements(itemsize),
                    algorithm=cost.algorithm,
                )
            if san is not None:
                rnd.trace_extra = san.finish_round(
                    self, seq, rnd.specs, rnd.payloads, results, race_token,
                )
                race_token = None  # released by finish_round
            rnd.algorithm = cost.algorithm
            rnd.op = op
            rnd.t_start = t_start
            rnd.t_end = t_end
            rnd.wire_bytes = cost.wire_bytes
            rnd.retries = failures
            rnd.retry_seconds = retry_seconds
            rnd.results = results
            cap = runtime.capture
            if cap is not None:
                cap.record_round(
                    self, seq, rnd.mode, cost, op, itemsize, rnd.payloads
                )
            tracer = runtime.tracer
            if tracer is not None and rnd.mode == "async":
                # the stream lane; blocking rounds are annotated per member
                # as each leaves the rendezvous
                for local, g in enumerate(self.ranks):
                    tracer.annotate(
                        g, "comm_stream", op, t_start, t_end,
                        wire_bytes=cost.wire_bytes, group_size=self.size,
                        retries=failures, primary=(local == 0),
                        algo=cost.algorithm, **rnd.trace_extra,
                    )
        except BaseException as exc:  # propagate to every member
            if race_token is not None:
                san.race_release(race_token)
            rnd.error = exc
        rnd.done = True
        self._cond.notify_all()


class AsyncCollectiveHandle(WorkHandle):
    """One rank's handle on an in-flight nonblocking collective round."""

    __slots__ = ("_group", "_seq", "_me", "_rank", "_spec", "_done", "_result")

    def __init__(self, group: ProcessGroup, seq: int, me: int, rank: int,
                 spec: Any) -> None:
        self._group = group
        self._seq = seq
        self._me = me
        self._rank = rank
        self._spec = spec
        self._done = False
        self._result: Any = None

    def test(self) -> bool:
        if self._done:
            return True
        with self._group._cond:
            rnd = self._group._rounds.get(self._seq)
            return rnd is None or rnd.done

    def wait(self) -> Any:
        """Block (in host time) until the round completes, then max-join the
        caller's compute clock to the completion time.  Only the portion of
        the op duration the clock actually stalls on is exposed; the rest is
        accounted as overlapped."""
        if self._done:
            return self._result
        group = self._group
        runtime = group.runtime
        clock = runtime.clocks[self._rank]
        tracer = runtime.tracer
        with group._cond:
            rnd = group._rounds.get(self._seq)
            if rnd is None:
                raise RuntimeError(
                    f"nonblocking collective #{self._seq} on group "
                    f"{group.ranks} has no round state (runtime reset while "
                    f"the handle was outstanding?)"
                )
            if not rnd.done:
                group._await_round(self._rank, self._seq, rnd, self._spec, clock)
            if rnd.error is not None:
                self._done = True
                group._claim(rnd, self._seq)
                raise rnd.error
            result = rnd.results[self._me]
            t_start, t_end, op = rnd.t_start, rnd.t_end, rnd.op
            rnd.claimed += 1
            if rnd.claimed == group.size:
                del group._rounds[self._seq]
        duration = t_end - t_start
        t_wait = clock.time
        exposed = min(duration, max(0.0, t_end - t_wait))
        clock.sync_to(t_end, "comm")
        runtime.comm_streams[self._rank].note_exposed(exposed)
        group.counters.record_overlap(
            op or "collective", exposed, max(0.0, duration - exposed)
        )
        cap = runtime.capture
        if cap is not None:
            cap.record_member(self._rank, group, self._seq, "cw")
        if tracer is not None and exposed > 0.0:
            tracer.annotate(
                self._rank, "overlap", f"wait/{op}", t_wait, t_end,
                exposed=exposed, overlapped=max(0.0, duration - exposed),
            )
        self._done = True
        self._result = result
        return result
