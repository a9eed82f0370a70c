"""The one time rule: what a rank group's communication does to simulated time.

Every step time the system reports comes out of three small rules —

* a collective round ends at ``max(entry times, stream tail) + cost``: a
  blocking round syncs every member's compute clock to that end, a
  nonblocking one occupies every member's comm stream and leaves the clocks
  to each ``wait()``;
* a handle ``wait()`` max-joins the caller's clock to the op's end and
  exposes only what the clock actually stalls on, the rest was overlapped;
* a point-to-point receive completes at ``max(entry, availability)``, where
  availability is the sender's ``start + cost``

— and :class:`GroupTimeline` is the only place they are written.  It owns a
group's ``ranks``, ``counters``, comm-stream ``tail`` and per-sender p2p
tails, moves the clocks and stream clocks of a *host* (anything with
``clocks``, ``comm_streams`` and ``tracer``), counts the wire traffic and
emits each rule's trace spans.  It never blocks and holds no payload.

Three drivers decide *when* a rule fires and hand it the facts:
:class:`~repro.comm.group.ProcessGroup` is a ``GroupTimeline`` with a
thread rendezvous in front (its host is the ``SpmdRuntime``),
:class:`~repro.project.replay.ReplayEngine` hosts one ``GroupTimeline`` per
captured group and feeds it decoded capture events, and the serving engine
enters every member of a round from one thread (``drive_round``).  All run
these lines, so a recorded replay equals the threaded run with ``==`` by
construction, and a served replica prices like a threaded one.

Beside them: a fault injector's two retry rules, thread-free as well
(:meth:`GroupTimeline.place_retried`, :meth:`GroupTimeline.retry_p2p`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.comm.cost import CollectiveCost
from repro.comm.counters import CommCounters
from repro.runtime.clock import SimClock, StreamClock
from repro.runtime.errors import CollectiveTimeout

#: shared empty trace-tag mapping — rounds only swap in a real dict when the
#: sanitizer contributes tags, so the disabled path allocates nothing extra
NO_EXTRA: Dict[str, Any] = {}


class Round:
    """One collective round of a group: what its driver gathers from the
    members (``payloads`` / ``results`` / ``error`` are the threaded
    rendezvous's; a replay has only entry times) and the facts
    :meth:`GroupTimeline.place` fills in."""

    __slots__ = (
        "seq", "mode", "payloads", "entry_times", "results", "done",
        "claimed", "error", "op", "cost", "itemsize", "t_start", "t_end",
        "retries", "retry_seconds", "trace_extra", "ahead",
    )

    def __init__(self, seq: int = 0, mode: Optional[str] = None) -> None:
        #: the round's sequence number in its group
        self.seq = seq
        #: "sync" (blocking rendezvous) or "async" (handle-based), as the
        #: first arriver called it — mixing the two is a program error
        self.mode = mode
        self.payloads: Dict[int, Any] = {}
        #: by local rank: the member's clock when it entered the round
        self.entry_times: Dict[int, float] = {}
        self.results: Optional[Dict[int, Any]] = None
        self.done = False
        self.claimed = 0
        self.error: Optional[BaseException] = None
        # round facts, set by ``place`` (a failed round keeps ``op`` None)
        self.op: Optional[str] = None
        self.cost: Optional[CollectiveCost] = None
        self.itemsize = 1
        self.t_start = 0.0
        self.t_end = 0.0
        self.retries = 0
        self.retry_seconds = 0.0
        #: extra span tags, the sanitizer's (set by its complete hook)
        self.trace_extra: Dict[str, Any] = NO_EXTRA
        #: closed on local rank 0's arrival for every member: placing it
        #: moves only rank 0, each late member moves itself as it claims
        self.ahead = False


class GroupTimeline:
    """Simulated-time state and rules of one fixed, ordered set of ranks."""

    def __init__(self, host: Any, ranks: Sequence[int]) -> None:
        self.host = host
        self.ranks = list(ranks)
        self.size = len(self.ranks)
        #: global rank -> local rank
        self.local_of = {g: i for i, g in enumerate(self.ranks)}
        self.counters = CommCounters()
        #: simulated time this group's comm stream drains: every collective
        #: (blocking or nonblocking) serializes after it, NCCL-stream-style
        self.tail = 0.0
        #: per-sender p2p stream tails (only the owning rank's thread writes
        #: its key; pre-populated so concurrent reads never resize the dict)
        self.p2p_tails: Dict[int, float] = dict.fromkeys(self.ranks, 0.0)

    def rewind(self) -> None:
        """Back to t=0 between runs (the counters are the caller's to keep)."""
        self.tail = 0.0
        for g in self.ranks:
            self.p2p_tails[g] = 0.0

    # -- collectives ---------------------------------------------------------

    def solo(self, rank: int, op: str, cost: CollectiveCost, itemsize: int,
             extra: Dict[str, Any] = NO_EXTRA) -> None:
        """A round of a one-member group: nobody to meet, so the member's own
        clock waits out the stream tail and pays the cost."""
        host = self.host
        clock = host.clocks[rank]
        t0 = clock.time
        if self.tail > t0:
            clock.sync_to(self.tail, "comm")
        clock.advance(cost.seconds, "comm")
        self.tail = clock.time
        if cost.wire_bytes:
            self.counters.record(
                op, cost.wire_bytes, cost.wire_bytes // max(itemsize, 1),
                algorithm=cost.algorithm,
            )
        if host.tracer is not None:
            host.tracer.annotate(
                rank, "collective", op, t0, clock.time,
                wire_bytes=cost.wire_bytes, group_size=1, primary=True,
                algo=cost.algorithm, **extra,
            )

    def place(self, rnd: Round, op: str, cost: CollectiveCost, itemsize: int,
              retries: int = 0, retry_seconds: float = 0.0,
              permanent: bool = False) -> None:
        """The last arriver's time rule, on behalf of every member: the
        round starts once all have entered and whatever is in flight on the
        group's comm stream has drained, and ends ``cost`` (plus injected
        retransmissions) later.  A blocking round syncs every member's
        compute clock to the end; a nonblocking one occupies their comm
        streams and leaves the clocks to each :meth:`settle` — either way
        in one member-loop frame (``sync_all`` / ``occupy_all``).  A round
        closed ahead by a representative (DESIGN §4ab) moves local rank 0
        only; each other member moves itself when it claims the round.

        ``retry_seconds`` stays its own term: ``t_start + cost.seconds +
        retry_seconds`` is left-associated, and a ``permanent`` failure —
        the retry budget spent, the op never delivered — ends at ``t_start +
        retry_seconds``, moves time, and sets no round facts
        (:meth:`place_retried` raises).
        """
        host = self.host
        t_start = max(rnd.entry_times.values())
        if self.tail > t_start:
            t_start = self.tail
        if permanent:
            t_end = t_start + retry_seconds
        else:
            t_end = t_start + cost.seconds + retry_seconds
        self.tail = t_end
        members = self.ranks if not rnd.ahead else self.ranks[:1]
        if rnd.mode == "sync":
            SimClock.sync_all(host.clocks, members, t_end)
        else:
            StreamClock.occupy_all(host.comm_streams, members, t_start, t_end)
        if permanent:
            return
        if cost.wire_bytes:
            self.counters.record(
                op, cost.wire_bytes, cost.wire_bytes // max(itemsize, 1),
                algorithm=cost.algorithm,
            )
        rnd.op = op
        rnd.cost = cost
        rnd.itemsize = itemsize
        rnd.t_start = t_start
        rnd.t_end = t_end
        rnd.retries = retries
        rnd.retry_seconds = retry_seconds

    def place_retried(self, rnd: Round, op: str, cost: CollectiveCost,
                      itemsize: int) -> None:
        """:meth:`place` under the host's ``fault_injector``: its verdict
        on this round is a number of failed attempts, each costing the op
        plus its backoff, or a permanent failure — the whole retry budget
        spent, time moved, every member raising :class:`CollectiveTimeout`.
        The ``injected`` hooks hear of every failure."""
        host = self.host
        policy = host.retry_policy
        failures, permanent = host.fault_injector.collective_verdict(
            op, self.ranks, rnd.seq)
        if failures or permanent:
            for hook in host.on_injected:
                hook("collective", op, min(self.ranks), max(self.ranks),
                     not permanent)
        if permanent:
            failures = policy.max_retries + 1
        retry_seconds = 0.0
        for a in range(1, failures + 1):
            retry_seconds += cost.seconds + policy.backoff(a)
        if failures:
            self.counters.record_retry(
                op, failures * cost.wire_bytes,
                failures * (cost.wire_bytes // max(itemsize, 1)),
                attempts=failures,
            )
        self.place(rnd, op, cost, itemsize, failures, retry_seconds, permanent)
        if permanent:
            raise CollectiveTimeout(op, self.ranks, attempts=failures)

    def mark(self, rnd: Round) -> None:
        """A placed round's spans (tracer installed), every member's at once
        — the last arriver knows all of them: a blocking round is one
        ``collective`` span per member from its own entry to the common end,
        a nonblocking one the ``comm_stream`` lane; local rank 0's span
        carries the round totals.  Its own call because the sanitizer's
        tags (``rnd.trace_extra``) are only known after the round is placed.
        Built here, appended under one tracer-lock acquisition (DESIGN §4s).
        """
        from repro.trace.tracer import KIND_ANNOTATION, Span  # trace builds on comm

        tracer = self.host.tracer
        sync = rnd.mode == "sync"
        cat = "collective" if sync else "comm_stream"
        op, cost, retries, t_end = rnd.op, rnd.cost, rnd.retries, rnd.t_end
        spans = []
        for local, g in enumerate(self.ranks):
            spans.append(Span(
                g, cat, op, rnd.entry_times[local] if sync else rnd.t_start,
                t_end, KIND_ANNOTATION,
                {"wire_bytes": cost.wire_bytes, "group_size": self.size,
                 "retries": retries, "primary": local == 0,
                 "algo": cost.algorithm, **rnd.trace_extra}))
            if sync and retries:
                spans.append(Span(
                    g, "retry", f"{op}:retry", t_end - rnd.retry_seconds,
                    t_end, KIND_ANNOTATION, {"attempts": retries}))
        with tracer._lock:
            tracer._spans.extend(spans)

    def settle(self, rank: int, what: str, duration: float,
               t_end: float) -> None:
        """A handle ``wait()``: max-join ``rank``'s compute clock to the
        op's end.  Only the portion of ``duration`` the clock actually
        stalls on is exposed; the rest was overlapped with compute.  The
        terms are appended inline — see :class:`~repro.runtime.clock.StreamClock`
        for why that needs neither a lock nor an order."""
        host = self.host
        clock = host.clocks[rank]
        t_wait = clock.time
        exposed = min(duration, max(0.0, t_end - t_wait))
        overlapped = max(0.0, duration - exposed)
        clock.sync_to(t_end, "comm")
        if exposed > 0.0:
            stream = host.comm_streams[rank]
            stream.exposed_terms.append(exposed)
            stream.overlapped_terms.append(-exposed)
        self.counters.exposed_terms.append(exposed)
        self.counters.overlapped_terms.append(overlapped)
        if host.tracer is not None and exposed > 0.0:
            host.tracer.annotate(
                rank, "overlap", f"wait/{what}", t_wait, t_end,
                exposed=exposed, overlapped=overlapped,
            )

    # -- point-to-point ------------------------------------------------------

    def retry_p2p(self, rank: int, dst: int, cost: CollectiveCost,
                  elements: int) -> None:
        """The host ``fault_injector``'s attempts at a send from ``rank`` to
        global rank ``dst``, before the one that is delivered: each dropped
        or corrupted attempt charges the transfer plus its backoff to the
        sender's clock and counts the retransmitted bytes (the ``injected``
        hooks hear of every corruption); a link that never delivers spends
        the retry budget and raises :class:`CollectiveTimeout`."""
        host = self.host
        injector, policy = host.fault_injector, host.retry_policy
        clock = host.clocks[rank]
        failures = 0
        while True:
            verdict = injector.p2p_verdict(rank, dst)
            if verdict == "deliver":
                return
            if verdict == "corrupt":
                for hook in host.on_injected:
                    hook("p2p", "p2p", rank, dst, True)
            failures += 1
            t0 = clock.time
            clock.advance(cost.seconds + policy.backoff(failures), "comm")
            if host.tracer is not None:
                host.tracer.annotate(
                    rank, "retry", "p2p:retry", t0, clock.time,
                    dst=dst, attempt=failures,
                )
            self.counters.record_retry("p2p", cost.wire_bytes, elements)
            if failures > policy.max_retries:
                raise CollectiveTimeout("p2p", (rank, dst), attempts=failures)

    def send(self, rank: int, t_entry: float, cost: CollectiveCost,
             elements: int, dst: int, nbytes: int) -> float:
        """A blocking send from ``rank`` to global rank ``dst``; returns when
        the payload is available to the receiver.  The transfer is charged
        to the sender's clock, and its span starts at ``t_entry`` — the
        entry *before* any injected retransmission."""
        host = self.host
        clock = host.clocks[rank]
        t_avail = clock.time + cost.seconds
        self.counters.record("p2p", cost.wire_bytes, elements)
        clock.advance(cost.seconds, "comm")
        if host.tracer is not None:
            host.tracer.annotate(
                rank, "p2p", "send", t_entry, clock.time,
                dst=dst, nbytes=nbytes,
            )
        return t_avail

    def stream_send(self, rank: int, cost: CollectiveCost, elements: int,
                    dst: int, nbytes: int) -> float:
        """An ``isend`` on ``rank``'s p2p stream: it starts at
        max(issue time, stream tail) — injected retransmissions have already
        moved the clock — and the sender's clock is not charged; returns the
        transfer's end, which is also the payload's availability."""
        host = self.host
        start = max(host.clocks[rank].time, self.p2p_tails[rank])
        t_end = start + cost.seconds
        self.p2p_tails[rank] = t_end
        self.counters.record("p2p", cost.wire_bytes, elements)
        host.comm_streams[rank].occupy(start, t_end)
        if host.tracer is not None:
            host.tracer.annotate(
                rank, "comm_stream", "isend", start, t_end,
                dst=dst, nbytes=nbytes,
            )
        return t_end

    def arrive(self, rank: int, src: int, t_avail: float,
               nbytes: int) -> None:
        """A receive on ``rank`` of a message from global rank ``src``
        completes at ``max(entry, availability)``."""
        host = self.host
        clock = host.clocks[rank]
        t0 = clock.time
        clock.sync_to(t_avail, "comm")
        if host.tracer is not None:
            host.tracer.annotate(
                rank, "p2p", "recv", t0, clock.time, src=src, nbytes=nbytes,
            )
