"""Process groups and the collective rendezvous.

A :class:`ProcessGroup` is the meeting point for a fixed set of global ranks:
a :class:`~repro.comm.timeline.GroupTimeline` — which owns what the group's
communication does to simulated time — with a thread rendezvous in front
(a thread-free driver enters every member at once: ``drive_round``).
Collectives are sequence-numbered per group (MPI semantics: all members must
issue group collectives in the same order); each call forms a *round* that
completes when every member has arrived, at which point the last arriver

1. combines the payloads (the actual data movement/arithmetic),
2. computes the call's cost from the cost model, and
3. *places* the round on the timeline: member clocks (or comm streams) move
   to ``max(entry times, stream tail) + cost`` and the wire traffic lands in
   the group's counters.

Everything else that takes part in a round — the fault injector's crash
check, the sanitizer, the capture recorder, the tracer — is reached through
the runtime's lifecycle hooks, one tuple per event: enter → (stall) →
finalize → complete | fail (DESIGN §4u).  With nothing installed every
tuple is empty and the loops over them make no call.

The rendezvous is event-driven and untimed: a waiter enters the runtime's
parked set and sleeps on the group condition; the last arriver takes the
round's parked members out of the set and notifies them, and the abort path
(``SpmdRuntime.wake_all``) wakes everyone.  When every live rank is parked
the runtime's deadlock rule ends the wait (``SpmdRuntime.deadlocked``).

While rank 0 runs alone as the representative of every rank (DESIGN §4ab),
a world-group round of an :data:`AHEAD_OPS` kind closes on its arrival
alone, its payload and entry time standing for every member's, and stays
in the round table; a member that starts after a trigger claims it late,
moving its own clock or stream as the placement would have.  Any other
round of a multi-member group is a trigger.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.comm.cost import CollectiveCost
from repro.comm.counters import CommCounters
from repro.comm.timeline import GroupTimeline, Round
from repro.runtime.errors import CollectiveTimeout

#: finalize(payloads by local rank) ->
#:   (results by local rank, cost, itemsize for element accounting)
FinalizeFn = Callable[
    [Dict[int, Any]], Tuple[Dict[int, Any], CollectiveCost, int]
]

#: the params of a call that takes none (``barrier``, ``split``, ...)
NO_PARAMS: Dict[str, Any] = {}

#: the world-group rounds a representative closes ahead for every rank:
#: unrooted, with one result per member derived from a payload alike on all
AHEAD_OPS = frozenset(("all_reduce", "all_gather", "reduce_scatter", "barrier"))


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
        self.cost_model = runtime.cost_model  # one per runtime
        self._cond = threading.Condition()
        self._rounds: Dict[int, Round] = {}
        self._seq: Dict[int, int] = {r: 0 for r in ranks}
        #: every rank of the runtime, in rank order: the group whose rounds
        #: a representative may close ahead
        self.is_world = self.size > 1 and ranks == list(range(runtime.world_size))

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
                   finalize: FinalizeFn, op: str,
                   params: Dict[str, Any] = NO_PARAMS,
                   mode: str = "sync") -> Any:
        """Enter a round of collective ``op`` (called with ``params``);
        returns this rank's share of the result — or, ``mode="async"``, a
        :class:`WorkHandle` on it without blocking.

        ``finalize`` must be logically identical on all ranks; the last
        arriver's instance runs — for a nonblocking round, the last to
        *issue* it.  Such a round occupies the group's comm stream and moves
        no compute clock; each member max-joins when it waits its handle.

        On the healthy path a rank makes no call of its own below this frame
        except :meth:`_await_round` when it has to park — the membership,
        mode and claim bookkeeping is inline on purpose (DESIGN 4l).
        """
        runtime = self.runtime
        me = self.local_of.get(my_global_rank)
        if me is None:
            self.local_rank(my_global_rank)  # raises: not a member
        if runtime.alone and self.size > 1:
            if self.is_world and op in AHEAD_OPS:
                return self._close_ahead(my_global_rank, payload, finalize, op, mode)
            runtime.diverge(f"{op} on group {tuple(self.ranks)}")
        clock = runtime.clocks[my_global_rank]
        seq = self._seq[my_global_rank]
        for hook in runtime.on_enter:
            hook(my_global_rank, clock.time, self, seq, op, payload, params)
        self._seq[my_global_rank] = seq + 1

        if self.size == 1 and mode == "sync":
            payloads = {0: payload}
            results, cost, itemsize = finalize(payloads)
            extra: Dict[str, Any] = {}  # span tags the solo hooks add
            for hook in runtime.on_solo:
                hook(my_global_rank, self, seq, op, cost, itemsize, payloads,
                     results, extra)
            self.solo(my_global_rank, op, cost, itemsize, extra)
            return results[0]

        with self._cond:
            rnd = self._rounds.get(seq)
            if rnd is None:
                rnd = self._rounds[seq] = Round(seq, mode)
            elif rnd.mode != mode:
                self._fail_mixed_mode(rnd, seq, mode)
            elif rnd.ahead:
                return self._claim_late(rnd, me, my_global_rank, op)
            rnd.payloads[me] = payload
            rnd.entry_times[me] = clock.time
            if mode != "sync":
                for hook in runtime.on_member:
                    hook(my_global_rank, self, seq, "ic")
                if not rnd.done and len(rnd.payloads) == self.size:
                    self._finalize_round(rnd, op, finalize)
                return AsyncCollectiveHandle(self, seq, me, my_global_rank, op)

            if rnd.done:
                # The round already failed (a sanitizer desync verdict)
                # while this rank was on its way; claim the error below.
                pass
            elif len(rnd.payloads) == self.size:
                self._finalize_round(rnd, op, finalize)
            else:
                self._await_round(my_global_rank, rnd, op)

            if rnd.error is not None:
                self._claim(rnd, seq)
                raise rnd.error
            result = rnd.results[me]
            for hook in runtime.on_member:
                hook(my_global_rank, self, seq, "c")
            rnd.claimed += 1
            if rnd.claimed == self.size:
                del self._rounds[seq]
            return result

    def drive_round(self, payloads: Sequence[Any], finalize: FinalizeFn,
                    op: str, params: Dict[str, Any] = NO_PARAMS) -> None:
        """A blocking round whose members, ``payloads`` by local rank, all
        enter from the calling thread; a failure is signalled as the member's
        whose ``enter`` hook raised, or as the last member's, which placed it."""
        runtime = self.runtime
        seq = self._seq[self.ranks[0]]
        rnd = Round(seq, "sync")
        for local, g in enumerate(self.ranks):
            now = rnd.entry_times[local] = runtime.clocks[g].time
            try:
                for hook in runtime.on_enter:
                    hook(g, now, self, seq, op, payloads[local], params)
            except BaseException as exc:
                runtime.signal_failure(g, exc)
                raise
            self._seq[g] = seq + 1
            rnd.payloads[local] = payloads[local]
        with self._cond:
            self._finalize_round(rnd, op, finalize)
        if rnd.error is not None:
            runtime.signal_failure(self.ranks[-1], rnd.error)
            raise rnd.error

    # -- a representative's rounds (DESIGN §4ab) --------------------------

    def _close_ahead(self, rank: int, payload: Any, finalize: FinalizeFn,
                     op: str, mode: str) -> Any:
        """Rank 0, alone, enters a world-group round for every member: the
        round closes on its arrival, with its payload and entry time for
        each, moves rank 0 only, and stays for the members' late claims.
        Rank 0's ``member`` hooks run as on the live path."""
        seq = self._seq[rank]
        self._seq[rank] = seq + 1
        members = range(self.size)
        with self._cond:
            rnd = self._rounds[seq] = Round(seq, mode)
            rnd.ahead = True
            rnd.payloads = dict.fromkeys(members, payload)
            rnd.entry_times = dict.fromkeys(members, self.runtime.clocks[rank].time)
            self._finalize_round(rnd, op, finalize)
            on_member = self.runtime.on_member
            if mode != "sync":
                for hook in on_member:
                    hook(rank, self, seq, "ic")
                return AsyncCollectiveHandle(self, seq, 0, rank, op)
            if rnd.error is not None:
                self._claim(rnd, seq)
                raise rnd.error
            for hook in on_member:
                hook(rank, self, seq, "c")
            rnd.claimed = 1
            return rnd.results[0]

    def _claim_late(self, rnd: Round, me: int, rank: int, op: str) -> Any:
        """A member that started after a trigger enters a round closed
        ahead for it (group condition held): its clock syncs to the round's
        end, or its comm stream takes the round, as :meth:`place` would
        have done on its arrival; then it claims like any member, its
        ``member`` hooks included."""
        if rnd.error is None and rnd.op != op:
            raise RuntimeError(
                f"rank {rank} entered {op} #{rnd.seq} on group {self.ranks}, "
                f"where rank {self.ranks[0]} ran {rnd.op}: the ranks differed "
                f"before any trigger")
        runtime, seq = self.runtime, rnd.seq
        if rnd.mode != "sync":
            if rnd.error is None:
                runtime.comm_streams[rank].occupy(rnd.t_start, rnd.t_end)
            for hook in runtime.on_member:
                hook(rank, self, seq, "ic")
            return AsyncCollectiveHandle(self, seq, me, rank, op)
        if rnd.error is not None:
            self._claim(rnd, seq)
            raise rnd.error
        runtime.clocks[rank].sync_to(rnd.t_end, "comm")
        for hook in runtime.on_member:
            hook(rank, self, seq, "c")
        self._claim(rnd, seq)
        return rnd.results[me]

    def settle_absent(self, before: Optional[CommCounters]) -> None:
        """A representative run ended with no trigger: leave this world
        group as if every member had run rank 0's program — each at rank
        0's sequence number, each round claimed, and one wait term per
        member for each of rank 0's (``before``: the counters at the start)."""
        with self._cond:
            seq = self._seq[0]
            for g in self.ranks:
                self._seq[g] = seq
            for s, rnd in list(self._rounds.items()):
                if rnd.claimed:
                    del self._rounds[s]
            counters = self.counters
            for name in ("exposed_terms", "overlapped_terms"):
                terms = getattr(counters, name)
                mine = terms[len(getattr(before, name)) if before else 0:]
                terms.extend(mine * (self.size - 1))

    def mirror(self, solo: "ProcessGroup", before: Optional[CommCounters]) -> None:
        """This singleton group's member repeats what ``solo``'s did since
        ``before`` (its counters at the start of the run, None if it was
        made in the run): sequence number, stream tail and counters."""
        self._seq[self.ranks[0]] = solo._seq[solo.ranks[0]]
        self.tail = solo.tail
        self.counters.add_since(solo.counters, before or CommCounters())

    # ------------------------------------------------------------------

    def _await_round(self, my_global_rank: int, rnd: Round, op: str) -> None:
        """Park (group condition held) until ``rnd``, not yet done, completes.

        Shared by the blocking rendezvous and :meth:`AsyncCollectiveHandle.wait`.
        The rank joins the runtime's parked set and sleeps untimed until
        the round's finalizer (or failure) takes it out and notifies, or an
        abort wakes it; if it is the last live rank to park it runs the
        deadlock rule, and taken out with the round unfinished it raises
        that rule's verdict (DESIGN §4h).  All inline: a park makes no
        runtime frame.
        """
        runtime = self.runtime
        aborted, parked = runtime.aborted, runtime.parked
        with runtime.park_lock:
            parked[my_global_rank] = self, rnd
            stuck = len(parked) == runtime.live
        if stuck and not aborted.is_set():
            runtime.deadlocked()
        while not rnd.done:
            if aborted.is_set():
                runtime.check_abort()
            if my_global_rank not in parked:
                raise runtime.verdict or CollectiveTimeout(op, self.ranks)
            self._cond.wait()

    def wake(self) -> None:
        """Wake every thread parked in this group's rendezvous so it
        re-checks abort/done state (called by ``SpmdRuntime.wake_all``)."""
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
            self.fail(rnd, err)
        self._claim(rnd, seq)
        raise err

    def fail(self, rnd: Round, err: BaseException) -> None:
        """End the unfinished ``rnd`` with ``err`` for every member to claim,
        waking its parked members: a mixed-mode call or a deadlock verdict."""
        parked = self.runtime.parked  # taken out as in _finalize_round
        with self._cond:
            rnd.error = err
            rnd.done = True
            with self.runtime.park_lock:
                for g in self.ranks:
                    wait = parked.get(g)
                    if wait is not None and wait[1] is rnd:
                        del parked[g]
            self._cond.notify_all()

    def _finalize_round(self, rnd: Round, op: str,
                        finalize: FinalizeFn) -> None:
        """The last arriver's work, on behalf of every member (group
        condition held): ``finalize`` hooks → ``finalize`` → the runtime's
        placement rule (:meth:`place`, or :meth:`place_retried` under a fault
        injector) → ``complete`` hooks.  Any failure runs the ``fail`` hooks
        and becomes the round's error, which every member then claims.
        """
        runtime = self.runtime
        try:
            for hook in runtime.on_finalize:
                hook(self, rnd)
            rnd.results, cost, itemsize = finalize(rnd.payloads)
            runtime.place_round(self, rnd, op, cost, itemsize)
            for hook in runtime.on_complete:
                hook(self, rnd)
        except BaseException as exc:  # propagate to every member
            for hook in runtime.on_fail:
                hook(self, rnd)
            rnd.error = exc
        rnd.done = True
        # its parked members leave the parked set now, taken out by the
        # waker: a woken rank that had not yet left it would read as parked
        parked = runtime.parked
        if parked:
            with runtime.park_lock:
                for g in self.ranks:
                    wait = parked.get(g)
                    if wait is not None and wait[1] is rnd:
                        del parked[g]
        self._cond.notify_all()


class AsyncCollectiveHandle(WorkHandle):
    """One rank's handle on an in-flight nonblocking collective round."""

    __slots__ = ("_group", "_seq", "_me", "_rank", "_op", "_done", "_result",
                 "_error")

    def __init__(self, group: ProcessGroup, seq: int, me: int,
                 rank: int, op: str) -> None:
        self._group = group
        self._seq = seq
        self._me = me
        self._rank = rank
        self._op = op
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
        with group._cond:
            rnd = group._rounds.get(self._seq)
            if rnd is None:
                raise RuntimeError(
                    f"nonblocking collective #{self._seq} on group "
                    f"{group.ranks} has no round state (runtime reset while "
                    f"the handle was outstanding?)"
                )
            if not rnd.done:
                group._await_round(self._rank, rnd, self._op)
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
        for hook in group.runtime.on_member:
            hook(self._rank, group, self._seq, "cw")
        self._done = True
        self._result = result
        return result
