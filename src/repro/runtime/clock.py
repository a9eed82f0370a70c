"""Per-rank simulated clocks.

The performance side of the simulation is LogP-style: each rank owns a
scalar clock in simulated seconds.  Local compute advances only the local
clock; a collective synchronizes the participating clocks to
``max(entry times) + cost``; a point-to-point receive completes at
``max(receiver entry, sender send-completion)``.

Pipeline bubbles, load imbalance and PCIe bottlenecks all emerge from these
three rules — nothing else in the system hard-codes timing behaviour.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Sequence, Tuple


class SimClock:
    """Simulated time for one rank.

    Writes can come from the owning rank thread (compute) or from whichever
    thread finalizes a rendezvous (collectives), hence the lock.

    A clock may carry *slowdown windows* (straggler injection): work that
    would take ``dt`` seconds fault-free takes ``dt * factor`` while the
    clock reads a time inside ``[start, end)``.  An advance that straddles
    a window edge is integrated piecewise, so only the portion of the work
    inside the window is charged at the degraded rate.

    An optional *observer* (``set_observer``) is called with
    ``(category, t_before, t_after)`` on every nonzero advance or forward
    sync — the hook :class:`repro.trace.Tracer` uses to turn the scalar
    breakdown into a timeline.  Disabled (``None``) it costs one attribute
    check per advance.
    """

    __slots__ = ("time", "_lock", "_busy", "_slowdowns", "_observer",
                 "_capture")

    def __init__(self) -> None:
        #: simulated seconds, read-only outside this class (a plain slot:
        #: every comm entry reads it)
        self.time = 0.0
        self._lock = threading.Lock()
        self._busy: Dict[str, float] = {}
        self._slowdowns: List[Tuple[float, float, float]] = []
        self._observer = None
        self._capture = None

    def set_observer(self, observer) -> None:
        """Install (or clear, with ``None``) the span observer."""
        with self._lock:
            self._observer = observer

    def set_capture(self, capture) -> None:
        """Install (or clear, with ``None``) the advance-capture callback.

        Unlike the observer it receives ``(category, dt)`` with the *exact*
        post-slowdown delta — including ``dt == 0`` advances, which still
        create a breakdown entry — so a recorder can replay the advance
        stream bit-for-bit (reconstructing ``dt`` from observed
        ``t1 - t0`` is not exact in floating point)."""
        with self._lock:
            self._capture = capture

    def set_slowdown(self, factor: float, start: float = 0.0,
                     end: float = math.inf) -> None:
        """Scale advances by ``factor`` while the clock is within
        ``[start, end)`` (straggler injection; ``factor`` > 1 is slower)."""
        if not factor > 0:
            raise ValueError(f"slowdown factor must be positive, got {factor}")
        with self._lock:
            self._slowdowns.append((start, end, factor))

    def clear_slowdowns(self) -> None:
        with self._lock:
            self._slowdowns.clear()

    def _factor_at(self, t: float) -> float:
        f = 1.0
        for start, end, factor in self._slowdowns:
            if start <= t < end:
                f *= factor
        return f

    def _next_edge_after(self, t: float) -> float:
        edge = math.inf
        for start, end, _ in self._slowdowns:
            for b in (start, end):
                if t < b < edge:
                    edge = b
        return edge

    def _scaled(self, dt: float) -> float:
        """Simulated seconds consumed by ``dt`` seconds of fault-free work
        starting at the current time, integrating across window edges."""
        elapsed, t, work = 0.0, self.time, dt
        while work > 0.0:
            f = self._factor_at(t)
            edge = self._next_edge_after(t)
            if edge == math.inf or t + work * f <= edge:
                elapsed += work * f
                break
            elapsed += edge - t
            work -= (edge - t) / f
            t = edge
        return elapsed

    def advance(self, dt: float, category: str = "compute") -> None:
        """Move simulated time forward by ``dt`` seconds of work (scaled by
        any active slowdown window)."""
        if not 0.0 <= dt < math.inf:
            raise ValueError(f"cannot advance clock by {dt} seconds")
        with self._lock:
            if self._slowdowns:
                dt = self._scaled(dt)
            t0 = self.time
            self.time += dt
            self._busy[category] = self._busy.get(category, 0.0) + dt
            if self._capture is not None:
                self._capture(category, dt)
            if self._observer is not None and dt > 0.0:
                self._observer(category, t0, self.time)

    def advance_run(self, events: Sequence[tuple], pos: int,
                    scale: float = 1.0, stop_at_label: bool = False) -> int:
        """:meth:`advance` by ``dt * scale`` for each captured ``("a",
        category, dt, label)`` event of ``events`` from ``pos`` on, under one
        lock acquisition; stop at the first other event (or, with
        ``stop_at_label``, labelled advance) and return its position."""
        end = len(events)
        with self._lock:
            while pos < end:
                ev = events[pos]
                if ev[0] != "a" or (stop_at_label and ev[3] is not None):
                    break
                _t, category, dt, _label = ev
                if scale != 1.0:
                    dt *= scale
                if not 0.0 <= dt < math.inf:
                    raise ValueError(f"cannot advance clock by {dt} seconds")
                if self._slowdowns:
                    dt = self._scaled(dt)
                t0 = self.time
                self.time += dt
                self._busy[category] = self._busy.get(category, 0.0) + dt
                if self._capture is not None:
                    self._capture(category, dt)
                if self._observer is not None and dt > 0.0:
                    self._observer(category, t0, self.time)
                pos += 1
        return pos

    def sync_to(self, t: float, category: str = "wait") -> None:
        """Jump forward to absolute time ``t`` (no-op if already past it);
        NaN and ``+inf`` are refused, each on the branch it can reach.
        :meth:`sync_all` repeats this body for a collective's members."""
        with self._lock:
            if t > self.time:
                if t == math.inf:
                    raise ValueError(f"cannot sync clock to {t}")
                t0 = self.time
                self._busy[category] = self._busy.get(category, 0.0) + (t - self.time)
                self.time = t
                if self._observer is not None:
                    self._observer(category, t0, t)
            elif t != t:
                raise ValueError(f"cannot sync clock to {t}")

    @staticmethod
    def sync_all(clocks: Sequence["SimClock"], ranks: Sequence[int], t: float) -> None:
        """``clocks[g].sync_to(t, "comm")`` for every ``g`` in ``ranks``, in
        one frame: each under its own lock, with its arithmetic and refusals."""
        for g in ranks:
            clock = clocks[g]
            with clock._lock:
                if t > clock.time:
                    if t == math.inf:
                        raise ValueError(f"cannot sync clock to {t}")
                    t0 = clock.time
                    clock._busy["comm"] = clock._busy.get("comm", 0.0) + (t - t0)
                    clock.time = t
                    if clock._observer is not None:
                        clock._observer("comm", t0, t)
                elif t != t:
                    raise ValueError(f"cannot sync clock to {t}")

    def copy_from(self, other: "SimClock") -> None:
        """Read what ``other`` reads: its time and breakdown."""
        with other._lock:
            t, busy = other.time, dict(other._busy)
        with self._lock:
            self.time, self._busy = t, busy

    def breakdown(self) -> Dict[str, float]:
        """Seconds spent per category (compute / comm / wait / ...)."""
        with self._lock:
            return dict(self._busy)

    def reset(self) -> None:
        with self._lock:
            self.time = 0.0
            self._busy.clear()
            self._slowdowns.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimClock(t={self.time:.6f}s)"


class StreamClock:
    """Simulated time of one rank's communication stream.

    Nonblocking operations do not advance the owning rank's
    :class:`SimClock`; they *occupy* this stream instead: an op issued at
    compute time ``t`` starts no earlier than the stream's current head,
    runs for its priced cost, and moves the head forward.  The compute
    clock reconciles lazily — ``WorkHandle.wait()`` max-joins it to the op
    completion time, charging only the *exposed* remainder as ``comm``.

    ``occupy`` runs on whichever thread finalizes a rendezvous and a
    ``wait()`` reclassifies on the waiter's.  The head moves by ``max``,
    which commutes, and the busy / exposed / overlapped seconds are
    append-only term lists read with ``math.fsum`` — a correctly rounded sum
    has no order — so ``time`` and every sum are the same float under any
    host-thread interleaving, and in a single-threaded replay's sweep order:
    compare them with ``==``.  ``overlapped`` holds the full op duration from
    issue; the wait appends the portion the compute clock actually stalled
    on to ``exposed_terms`` and its negation to ``overlapped_terms``
    (``GroupTimeline.settle``, inline: ``list.append`` needs no lock).
    """

    __slots__ = ("time", "_lock", "_busy", "exposed_terms", "overlapped_terms")

    def __init__(self) -> None:
        #: stream head: simulated time the last queued op completes
        self.time = 0.0
        self._lock = threading.Lock()
        self._busy: Dict[str, List[float]] = {}
        self.exposed_terms: List[float] = []
        self.overlapped_terms: List[float] = []

    @property
    def exposed_seconds(self) -> float:
        """Comm seconds the compute clock stalled on at ``wait()``."""
        return math.fsum(self.exposed_terms)

    @property
    def overlapped_seconds(self) -> float:
        """Comm seconds hidden behind compute (duration minus exposed)."""
        return math.fsum(self.overlapped_terms)

    def occupy(self, t0: float, t1: float, category: str = "comm") -> None:
        """Record one op running on the stream over ``[t0, t1]``; the whole
        duration is provisionally counted as overlapped until a ``wait``
        reclassifies the stalled portion.  :meth:`occupy_all` repeats this
        body for a collective's members."""
        if not -math.inf < t0 <= t1 < math.inf:
            raise ValueError(f"bad stream occupancy: {t0} -> {t1}")
        with self._lock:
            dt = t1 - t0
            self._busy.setdefault(category, []).append(dt)
            self.overlapped_terms.append(dt)
            if t1 > self.time:
                self.time = t1

    @staticmethod
    def occupy_all(streams: Sequence["StreamClock"], ranks: Sequence[int],
                   t0: float, t1: float) -> None:
        """``streams[g].occupy(t0, t1)`` for every ``g`` in ``ranks``, in one
        frame, each stream under its own lock."""
        if not -math.inf < t0 <= t1 < math.inf:
            raise ValueError(f"bad stream occupancy: {t0} -> {t1}")
        dt = t1 - t0
        for g in ranks:
            stream = streams[g]
            with stream._lock:
                stream._busy.setdefault("comm", []).append(dt)
                stream.overlapped_terms.append(dt)
                if t1 > stream.time:
                    stream.time = t1

    def copy_from(self, other: "StreamClock") -> None:
        """Hold what ``other`` holds: its head and every term."""
        with other._lock:
            t = other.time
            busy = {cat: list(terms) for cat, terms in other._busy.items()}
            exposed = list(other.exposed_terms)
            overlapped = list(other.overlapped_terms)
        with self._lock:
            self.time, self._busy = t, busy
            self.exposed_terms, self.overlapped_terms = exposed, overlapped

    def busy_seconds(self) -> float:
        with self._lock:
            return math.fsum(map(math.fsum, self._busy.values()))

    def breakdown(self) -> Dict[str, float]:
        """Occupied seconds per category plus the exposed/overlapped split."""
        with self._lock:
            out = {cat: math.fsum(terms) for cat, terms in self._busy.items()}
        out["exposed"] = self.exposed_seconds
        out["overlapped"] = self.overlapped_seconds
        return out

    def reset(self) -> None:
        with self._lock:
            self.time = 0.0
            self._busy.clear()
            self.exposed_terms.clear()
            self.overlapped_terms.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamClock(t={self.time:.6f}s, exposed={self.exposed_seconds:.6f}s, "
            f"overlapped={self.overlapped_seconds:.6f}s)"
        )
