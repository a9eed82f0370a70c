"""Process groups and the collective rendezvous.

A :class:`ProcessGroup` is the meeting point for a fixed set of global ranks:
a :class:`~repro.comm.timeline.GroupTimeline` — which owns what the group's
communication does to simulated time — with a thread rendezvous in front.
Collectives are sequence-numbered per group (MPI semantics: all members must
issue group collectives in the same order); each call forms a *round* that
completes when every member has arrived, at which point the last arriver

1. combines the payloads (the actual data movement/arithmetic),
2. computes the call's cost from the cost model, and
3. *places* the round on the timeline: member clocks (or comm streams) move
   to ``max(entry times, stream tail) + cost`` and the wire traffic lands in
   the group's counters.

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
from repro.comm.timeline import NO_EXTRA, GroupTimeline, Round
from repro.runtime.errors import CollectiveTimeout

#: With a sanitizer installed, parked waiters still wake on this cadence to
#: run ``check_stalled`` — it is the sanitizer's desync-diagnosis latency,
#: not a liveness mechanism (completion and abort are notify-driven).
_DIAG_WINDOW = 0.05

#: finalize(payloads by local rank) ->
#:   (results by local rank, cost, op name, itemsize for element accounting)
FinalizeFn = Callable[
    [Dict[int, Any]], Tuple[Dict[int, Any], CollectiveCost, str, int]
]


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


class ProcessGroup(GroupTimeline):
    """A fixed, ordered set of global ranks with collective state: the
    group's timeline (its host is the runtime) behind a thread rendezvous.

    Create via ``runtime.group(ranks)`` (idempotent) — never directly, or
    different ranks would rendezvous on different objects.
    """

    def __init__(self, runtime: Any, ranks: List[int]) -> None:
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in group: {ranks}")
        super().__init__(runtime, ranks)
        self.runtime = runtime  # the timeline's ``host``, by its own name
        self.cost_model = CostModel(
            runtime.cluster,
            algorithm=getattr(runtime, "comm_algorithm", "ring"),
            island_ratio=getattr(runtime, "comm_island_ratio", 0.5),
        )
        self._cond = threading.Condition()
        self._rounds: Dict[int, Round] = {}
        self._seq: Dict[int, int] = {r: 0 for r in ranks}

    def local_rank(self, global_rank: int) -> int:
        try:
            return self.local_of[global_rank]
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
            self.rewind()
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
        me = self.local_of.get(my_global_rank)
        if me is None:
            self.local_rank(my_global_rank)  # raises: not a member
        clock = runtime.clocks[my_global_rank]
        if runtime.fault_injector is not None:
            runtime.fault_injector.check_time_crash(my_global_rank, clock.time)
        seq = self._seq[my_global_rank]
        if spec is not None:
            spec.seq = seq

        if self.size == 1:
            san = runtime.sanitizer
            extra: Dict[str, Any] = NO_EXTRA
            if san is not None:
                san.verify_round(self, seq, {0: spec} if spec else None)
            results, cost, op, itemsize = finalize({0: payload})
            if san is not None:
                extra = san.finish_round(
                    self, seq, {0: spec} if spec else None,
                    {0: payload}, results,
                )
                self._seq[my_global_rank] += 1
            self.solo(my_global_rank, op, cost, itemsize, extra)
            cap = runtime.capture
            if cap is not None:
                cap.record_solo(my_global_rank, self, op, cost, itemsize, payload)
            return results[0]

        self._seq[my_global_rank] = seq + 1
        with self._cond:
            rnd = self._rounds.get(seq)
            if rnd is None:
                rnd = self._rounds[seq] = Round()
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
            rnd.claimed += 1
            if rnd.claimed == self.size:
                del self._rounds[seq]
            return result

    # ------------------------------------------------------------------

    def _await_round(self, my_global_rank: int, seq: int, rnd: Round,
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

    def _claim(self, rnd: Round, seq: int) -> None:
        """Count one member's claim on a failed round (it is about to raise
        the error); the last member to claim deletes the round.  Every
        failing exit comes through here — the healthy exits count their
        claim inline, being on the per-rank path."""
        rnd.claimed += 1
        if rnd.claimed == self.size:
            del self._rounds[seq]

    def _fail_mixed_mode(self, rnd: Round, seq: int, mode: str) -> None:
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
        me = self.local_of.get(my_global_rank)
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
                rnd = self._rounds[seq] = Round()
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

    def _finalize_round(self, rnd: Round, seq: int,
                        finalize: FinalizeFn) -> None:
        """The last arriver's work, on behalf of every member (group
        condition held): sanitizer verify/race -> ``finalize`` -> injector
        verdict and retry pricing -> time and counters (:meth:`place`) ->
        sanitizer finish -> capture -> spans (:meth:`mark`).  Any failure
        becomes the round's error, which every member then claims.
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
                        failures * (cost.wire_bytes // max(itemsize, 1)),
                        attempts=failures,
                    )
            self.place(rnd, op, cost, itemsize, failures, retry_seconds,
                       permanent)
            if permanent:
                raise CollectiveTimeout(op, self.ranks, attempts=failures)
            if san is not None:
                rnd.trace_extra = san.finish_round(
                    self, seq, rnd.specs, rnd.payloads, results, race_token,
                )
                race_token = None  # released by finish_round
            rnd.results = results
            cap = runtime.capture
            if cap is not None:
                cap.record_round(
                    self, seq, rnd.mode, cost, op, itemsize, rnd.payloads
                )
            if runtime.tracer is not None:
                self.mark(rnd)
        except BaseException as exc:  # propagate to every member
            if race_token is not None:
                san.race_release(race_token)
            rnd.error = exc
        rnd.done = True
        self._cond.notify_all()


class AsyncCollectiveHandle(WorkHandle):
    """One rank's handle on an in-flight nonblocking collective round."""

    __slots__ = ("_group", "_seq", "_me", "_rank", "_spec", "_done",
                 "_result", "_error")

    def __init__(self, group: ProcessGroup, seq: int, me: int, rank: int,
                 spec: Any) -> None:
        self._group = group
        self._seq = seq
        self._me = me
        self._rank = rank
        self._spec = spec
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None

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
        accounted as overlapped.  A failed round raises its error here, on
        this and every later ``wait()``."""
        if self._done:
            if self._error is not None:
                raise self._error
            return self._result
        group = self._group
        runtime = group.runtime
        with group._cond:
            rnd = group._rounds.get(self._seq)
            if rnd is None:
                raise RuntimeError(
                    f"nonblocking collective #{self._seq} on group "
                    f"{group.ranks} has no round state (runtime reset while "
                    f"the handle was outstanding?)"
                )
            if not rnd.done:
                group._await_round(self._rank, self._seq, rnd, self._spec,
                                   runtime.clocks[self._rank])
            if rnd.error is not None:
                self._done = True
                self._error = rnd.error
                group._claim(rnd, self._seq)
                raise rnd.error
            result = rnd.results[self._me]
            t_start, t_end, op = rnd.t_start, rnd.t_end, rnd.op
            rnd.claimed += 1
            if rnd.claimed == group.size:
                del group._rounds[self._seq]
        group.settle(self._rank, op, t_end - t_start, t_end)
        cap = runtime.capture
        if cap is not None:
            cap.record_member(self._rank, group, self._seq, "cw")
        self._done = True
        self._result = result
        return result
