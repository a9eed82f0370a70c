"""Per-rank event tracing in simulated time.

A :class:`Tracer` records what every rank of an SPMD program did and when —
in *simulated* seconds, the same timebase :class:`~repro.runtime.clock.SimClock`
charges.  Two event sources feed it:

* **clock spans** — every ``SimClock.advance``/``sync_to`` emits a span
  tagged with the clock's category (``compute``, ``comm``, ``wait``,
  ``offload``, ``optimizer``).  Summed per category these reconcile exactly
  with ``SimClock.breakdown()``, so the trace is a lossless refinement of
  the end-state scalars.
* **annotation spans** — higher layers name the work: collectives with wire
  bytes and retry counts (``collective``/``retry``), point-to-point
  transfers (``p2p``), per-microbatch pipeline stages (``pipeline``) and
  receive stalls (``bubble``), ZeRO chunk traffic (``zero``), trainer steps
  and checkpoints (``step``/``checkpoint``), and one ``rank`` lifecycle
  span per rank.  Nonblocking collectives add a **comm-stream lane** per
  rank: ``comm_stream`` spans mark when each async transfer occupied the
  rank's communication stream, and ``overlap`` spans on the compute lane
  mark the *exposed* tail a ``wait()`` actually stalled for — together they
  split comm time into hidden (overlapped) and exposed parts.

Instrumentation is zero-cost when disabled: the comm path reaches the
tracer only as a subscriber of the runtime's lifecycle hooks (DESIGN §4u),
every other site is one ``is None`` check on ``runtime.tracer``.

When a :class:`~repro.sanitize.CommSanitizer` is installed alongside the
tracer, collective spans additionally carry ``sanitized=True`` and (under
checksum mode) a ``digest`` tag — the combined CRC of the round's result
buffers — and sanitizer verdicts appear as ``sanitizer:<ErrorType>``
instant events on the rank that detected them.

Consumers: :func:`repro.trace.chrome.chrome_trace` (open in
``chrome://tracing`` / Perfetto) and :class:`repro.trace.report.TraceReport`
(text summary).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.comm.timeline import GroupTimeline
from repro.runtime.errors import SpmdAborted
from repro.runtime.spmd import Observer

#: categories emitted by SimClock observers (the reconcilable set)
CLOCK_CATEGORIES = ("compute", "comm", "wait", "offload", "optimizer")

#: categories emitted by annotation sites (not summed into breakdowns)
ANNOTATION_CATEGORIES = (
    "collective", "p2p", "pipeline", "bubble", "retry",
    "zero", "step", "checkpoint", "rank", "comm_stream", "overlap",
    "serve",
)

#: event kinds
KIND_CLOCK = "clock"
KIND_ANNOTATION = "annotation"


@dataclass
class Span:
    """One closed interval of simulated time on one rank's lane."""

    rank: int
    cat: str
    name: str
    t0: float
    t1: float
    kind: str = KIND_ANNOTATION
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class Instant:
    """A zero-duration marker (rank start/failure, user events)."""

    rank: int
    name: str
    t: float
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Counter:
    """A sampled value series point (memory-pool readings)."""

    rank: int
    name: str
    t: float
    values: Dict[str, float] = field(default_factory=dict)


class Tracer(Observer):
    """Collects per-rank spans/instants/counters for one or more SPMD runs.

    Attach with ``SpmdRuntime(cluster, tracer=tracer)`` or
    ``tracer.install(runtime)``; detach with :meth:`uninstall`.  Recording
    is thread-safe (rank threads and rendezvous finalizers all append).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._instants: List[Instant] = []
        self._counters: List[Counter] = []

    # -- lifecycle ---------------------------------------------------------

    #: instrumentation sites read the tracer off ``runtime.tracer``
    slot = "tracer"

    def _attach(self, runtime: Any) -> None:
        for rank, clock in enumerate(runtime.clocks):
            clock.set_observer(_ClockObserver(self, rank))

    def _detach(self, runtime: Any) -> None:
        for clock in runtime.clocks:
            clock.set_observer(None)

    # -- lifecycle hooks ---------------------------------------------------

    #: a placed round's spans, every member's at once: the timeline's rule,
    #: run after the sanitizer's hook has set the round's tags
    on_complete = staticmethod(GroupTimeline.mark)

    def on_rank_done(self, rank: int, t_start: float, t_end: float,
                     error: Optional[BaseException]) -> None:
        """A ``rank`` lifecycle span on a rank that returned, a
        ``rank<r>:failed`` instant on one that raised (not on one the
        failure aborted)."""
        if error is None:
            self.annotate(rank, "rank", f"rank{rank}", t_start, t_end)
        elif not isinstance(error, SpmdAborted):
            self.instant(rank, f"rank{rank}:failed", t_end,
                         error=type(error).__name__)

    def clear(self) -> None:
        """Drop all recorded events (e.g. between runs on the same runtime,
        whose clocks reset to t=0)."""
        with self._lock:
            self._spans.clear()
            self._instants.clear()
            self._counters.clear()

    # -- recording ---------------------------------------------------------

    def annotate(self, rank: int, cat: str, name: str, t0: float, t1: float,
                 **args: Any) -> None:
        """Record a named annotation span over ``[t0, t1]``."""
        with self._lock:
            self._spans.append(
                Span(rank, cat, name, t0, t1, KIND_ANNOTATION, dict(args))
            )

    @contextmanager
    def region(self, rank: int, cat: str, name: str, clock: Any,
               **args: Any) -> Iterator[None]:
        """Context manager recording an annotation span whose bounds are the
        clock's simulated time at entry and exit."""
        t0 = clock.time
        try:
            yield
        finally:
            self.annotate(rank, cat, name, t0, clock.time, **args)

    def instant(self, rank: int, name: str, t: float, **args: Any) -> None:
        with self._lock:
            self._instants.append(Instant(rank, name, t, dict(args)))

    def counter(self, rank: int, name: str, t: float, **values: float) -> None:
        with self._lock:
            self._counters.append(Counter(rank, name, t, dict(values)))

    def sample_memory(self, rank: int, device: Any, t: float) -> None:
        """Sample a device memory pool (allocated bytes) as a counter point."""
        self.counter(
            rank, f"mem:{device.name}", t,
            allocated=float(device.memory.allocated),
        )

    # -- accessors ---------------------------------------------------------

    def spans(self, kind: Optional[str] = None,
              cat: Optional[str] = None) -> List[Span]:
        with self._lock:
            out = list(self._spans)
        if kind is not None:
            out = [s for s in out if s.kind == kind]
        if cat is not None:
            out = [s for s in out if s.cat == cat]
        return out

    def instants(self) -> List[Instant]:
        with self._lock:
            return list(self._instants)

    def counters(self) -> List[Counter]:
        with self._lock:
            return list(self._counters)

    def ranks(self) -> List[int]:
        with self._lock:
            seen = {s.rank for s in self._spans}
            seen.update(i.rank for i in self._instants)
            seen.update(c.rank for c in self._counters)
        return sorted(seen)

    def clock_breakdown(self, rank: int) -> Dict[str, float]:
        """Per-category seconds summed from this rank's clock spans — must
        reconcile with ``SimClock.breakdown()`` for the same run."""
        out: Dict[str, float] = {}
        for s in self.spans(kind=KIND_CLOCK):
            if s.rank == rank:
                out[s.cat] = out.get(s.cat, 0.0) + s.duration
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(spans={len(self._spans)}, instants={len(self._instants)}, "
            f"counters={len(self._counters)})"
        )


class _ClockObserver:
    """Per-clock callback recording one clock-level category span per
    nonzero advance (zero-duration advances are skipped by the clock); it
    appends the span itself, with no tracer method frame in between
    (DESIGN §4s)."""

    __slots__ = ("_tracer", "_rank")

    def __init__(self, tracer: Tracer, rank: int) -> None:
        self._tracer = tracer
        self._rank = rank

    def __call__(self, category: str, t0: float, t1: float) -> None:
        span = Span(self._rank, category, category, t0, t1, KIND_CLOCK)
        tracer = self._tracer
        with tracer._lock:
            tracer._spans.append(span)
