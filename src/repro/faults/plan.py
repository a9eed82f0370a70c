"""Deterministic fault schedules.

A :class:`FaultPlan` is a seedable list of fault events scheduled against
*simulated* quantities — training steps, simulated clock time, per-link
transmission attempts, per-group collective calls — never host wall time.
The same plan (same seed, same events) therefore produces the same fault
schedule, the same retry counts and the same simulated-clock readings on
every run, which is what makes chaos tests replayable from a failure
report.

Event kinds (build them with the fluent helpers on :class:`FaultPlan`):

``RankCrash``
    The rank raises :class:`~repro.runtime.errors.RankFailure` at training
    step ``at_step`` (checked by the Trainer) or the first communication
    call at/after simulated time ``at_time``.  Permanent — the surviving
    ranks abort and the program must resume from a checkpoint.
``MessageFault``
    Transient loss (or in-flight corruption, detected by the receiver-side
    checksum in the simulated transport) of point-to-point messages on one
    directed link.  Healed by the communicator's bounded retry; with
    ``count=None`` the link is permanently down and the sender times out.
``CollectiveGlitch``
    A collective call needs ``attempts`` extra retransmission rounds before
    succeeding (transient), or never succeeds (``permanent=True``) and every
    member rank raises :class:`~repro.runtime.errors.CollectiveTimeout`.
``Straggler``
    Clock-rate multiplier on one rank's :class:`SimClock` over a simulated
    time window — the rank does the same work, slower.
``LinkDegrade``
    Scales the bandwidth of one topology link for the whole run (flapping
    links compose this with a probabilistic ``MessageFault`` on the same
    link).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np


@dataclass(frozen=True)
class RankCrash:
    rank: int
    at_step: Optional[int] = None
    at_time: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.at_step is None) == (self.at_time is None):
            raise ValueError("RankCrash needs exactly one of at_step / at_time")


@dataclass(frozen=True)
class MessageFault:
    src: int
    dst: int
    count: Optional[int] = 1  #: attempts to fault; None = link permanently down
    p: float = 1.0  #: per-attempt fault probability (seeded, deterministic)
    corrupt: bool = False  #: corrupt in flight instead of dropping


@dataclass(frozen=True)
class CollectiveGlitch:
    op: Optional[str] = None  #: None matches any collective
    ranks: Optional[Tuple[int, ...]] = None  #: None matches any group
    attempts: int = 1  #: failed attempts per glitched call
    p: float = 1.0  #: per-call glitch probability (seeded)
    max_glitches: Optional[int] = 1  #: total calls to glitch; None = unbounded
    permanent: bool = False  #: never succeeds -> CollectiveTimeout on all ranks


@dataclass(frozen=True)
class Straggler:
    rank: int
    factor: float  #: > 1 slows the rank down
    start: float = 0.0
    end: float = math.inf


@dataclass(frozen=True)
class LinkDegrade:
    src: int
    dst: int
    factor: float  #: bandwidth multiplier, 0 < factor


FaultEvent = Union[RankCrash, MessageFault, CollectiveGlitch, Straggler, LinkDegrade]


class FaultPlan:
    """A seeded, ordered collection of fault events.

    The seed drives every probabilistic decision through
    :meth:`coin`, so two runs of the same plan see identical faults.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.events: List[FaultEvent] = []

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    # -- fluent builders ---------------------------------------------------

    def crash(self, rank: int, at_step: Optional[int] = None,
              at_time: Optional[float] = None) -> "FaultPlan":
        return self.add(RankCrash(rank, at_step=at_step, at_time=at_time))

    def drop(self, src: int, dst: int, count: int = 1, p: float = 1.0) -> "FaultPlan":
        return self.add(MessageFault(src, dst, count=count, p=p))

    def corrupt(self, src: int, dst: int, count: int = 1, p: float = 1.0) -> "FaultPlan":
        return self.add(MessageFault(src, dst, count=count, p=p, corrupt=True))

    def link_down(self, src: int, dst: int) -> "FaultPlan":
        """Permanently kill the directed link: every send times out."""
        return self.add(MessageFault(src, dst, count=None))

    def glitch(self, op: Optional[str] = None,
               ranks: Optional[Sequence[int]] = None, attempts: int = 1,
               p: float = 1.0, max_glitches: Optional[int] = 1) -> "FaultPlan":
        return self.add(CollectiveGlitch(
            op=op, ranks=None if ranks is None else tuple(ranks),
            attempts=attempts, p=p, max_glitches=max_glitches,
        ))

    def blackout(self, op: Optional[str] = None,
                 ranks: Optional[Sequence[int]] = None) -> "FaultPlan":
        """Matching collectives never complete: every member rank raises
        :class:`CollectiveTimeout` after the retry budget is spent."""
        return self.add(CollectiveGlitch(
            op=op, ranks=None if ranks is None else tuple(ranks), permanent=True,
        ))

    def straggler(self, rank: int, factor: float, start: float = 0.0,
                  end: float = math.inf) -> "FaultPlan":
        return self.add(Straggler(rank, factor, start, end))

    def degrade_link(self, src: int, dst: int, factor: float) -> "FaultPlan":
        return self.add(LinkDegrade(src, dst, factor))

    # -- determinism -------------------------------------------------------

    def coin(self, *key: int) -> float:
        """Deterministic uniform [0, 1) draw for the fault decision
        identified by ``key`` (event index, attempt counter, ...)."""
        seq = np.random.SeedSequence([self.seed & 0x7FFFFFFF, *(abs(int(k)) for k in key)])
        return float(np.random.default_rng(seq).random())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(seed={self.seed}, events={len(self.events)})"
