"""Analytic replay of a captured op stream.

The engine re-executes an :class:`~repro.project.capture.OpTrace` on fresh
per-rank :class:`~repro.runtime.clock.SimClock`/:class:`StreamClock` pairs
without hosting a thread per rank: a single-threaded sweep scheduler drains
each rank's event stream until the rank *blocks* (a collective round whose
members have not all arrived, a nonblocking handle not yet finalized, a
receive whose message is not yet in the mailbox) and repeats until every
stream is exhausted.  The engine performs no time arithmetic of its own: it
*drives* one :class:`~repro.comm.timeline.GroupTimeline` per captured group
— each handler decodes an event and calls the method the threaded run
called — so with the *recorded* pricer the replayed clocks, stream clocks,
counters and trace spans equal the threaded run's with ``==``, by
construction.

Costs come from a pluggable pricer:

* :class:`RecordedPricer` — return the captured costs unchanged (fidelity
  mode, used by the parity tests);
* :class:`ModelPricer` — re-price every op through
  :data:`~repro.comm.cost.OP_PRICE`, the op table next to the run's cost
  formulas, on a :class:`~repro.project.fabric.ProjectedCostModel`,
  widening the named axes of a :class:`ScalePlan`
  (``axes={"dp": 8, "tp": 2, "pp": 2}``): a captured group is widened by
  the product of the factors of every axis it lies along and replicated by
  the product of the factors of every axis it does not — this is what
  projects a 16-rank hybrid capture to the paper's 512-GPU DP x TP x PP
  grids.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.comm.cost import OP_PRICE, CollectiveCost
from repro.comm.counters import CommCounters
from repro.comm.timeline import GroupTimeline, Round
from repro.runtime.clock import SimClock, StreamClock

from repro.project.capture import OpTrace
from repro.project.fabric import Fabric, ProjectedCostModel

#: the ops whose recorded per-rank payload shrinks as the group widens (a
#: ZeRO all-gather's local shard is ``total / p``); every other op keeps
#: its captured payload (a DP all-reduce moves the same gradient bytes at
#: any world size)
DEFAULT_SCALING: frozenset = frozenset({"all_gather"})

class ReplayStall(RuntimeError):
    """No rank can make progress but streams remain — a truncated or
    internally inconsistent trace."""


@dataclass
class ScaleAxis:
    """One named parallel axis of a hybrid :class:`ScalePlan`.

    ``factor`` widens every captured group that lies along this axis;
    ``groups`` is the family of captured rank tuples the axis owns (``None``
    resolves from the trace's ``axes`` metadata by name, falling back to
    the whole-world group for ``dp``).  ``sharded_bytes`` is the
    captured per-rank byte count of state this axis *partitions*
    (ZeRO chunks across dp, weight shards across tp): at factor ``k`` those
    bytes shrink to ``ceil(bytes / k)`` in the projected peak-memory model.
    ``chain=True`` marks a pipeline-style axis whose groups are linear
    chains: widening deepens the chain, so p2p boundary traffic scales by
    ``(k*s - 1) / (s - 1)`` for an ``s``-stage captured chain rather than
    by the plain factor.
    """

    factor: int = 1
    groups: Optional[Tuple[Tuple[int, ...], ...]] = None
    sharded_bytes: int = 0
    chain: bool = False

    def __post_init__(self) -> None:
        if self.factor < 1:
            raise ValueError(f"axis factor must be >= 1, got {self.factor}")
        if self.sharded_bytes < 0:
            raise ValueError(
                f"axis sharded_bytes must be >= 0, got {self.sharded_bytes}"
            )
        if self.groups is not None:
            self.groups = tuple(tuple(g) for g in self.groups)


@dataclass
class ResolvedAxis:
    """A :class:`ScaleAxis` bound to a trace: groups resolved, ready for
    the pricer to match against.  The group spanning the whole captured
    world is treated as lying along *every* axis."""

    name: str
    factor: int
    groups: Tuple[Tuple[int, ...], ...]
    sharded_bytes: int
    chain: bool

    def __post_init__(self) -> None:
        self.group_set = frozenset(self.groups)
        self.rank_set = frozenset(r for g in self.groups for r in g)

    @property
    def captured_degree(self) -> int:
        return max((len(g) for g in self.groups), default=1)


@dataclass
class ScalePlan:
    """How to stretch a captured trace to a larger world.

    ``axes`` maps axis names to factors (or full :class:`ScaleAxis`
    specs): ``ScalePlan(axes={"dp": 8, "tp": 2, "pp": 2})``.  A captured
    group is widened by the *product* of the factors of the axes it lies
    along (the whole-world group lies along all of them) and replicated by
    the product of the factors of the axes it does not, so the projected
    world always hosts ``world * prod(factors)`` ranks.  The data-parallel
    scale-out of a plain capture is ``axes={"dp": k}``: ``dp`` resolves to
    the whole-world group when the trace records no axis layout.
    """

    #: axis name -> factor int or :class:`ScaleAxis`
    axes: Dict[str, Union[int, ScaleAxis]] = field(default_factory=dict)
    #: multiplier on every non-comm clock advance (model a faster/slower
    #: accelerator without recapturing)
    compute_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.compute_scale <= 0:
            raise ValueError("compute_scale must be positive")
        norm: Dict[str, ScaleAxis] = {}
        for name, ax in self.axes.items():
            if isinstance(ax, ScaleAxis):
                norm[name] = ax
            elif isinstance(ax, int) and not isinstance(ax, bool):
                if ax < 1:
                    raise ValueError(
                        f"axis {name!r} factor must be >= 1, got {ax}"
                    )
                norm[name] = ScaleAxis(factor=ax)
            else:
                raise ValueError(
                    f"axis {name!r} must map to an int factor or a "
                    f"ScaleAxis, got {type(ax).__name__}"
                )
        self.axes = norm

    def total_factor(self) -> int:
        """World multiplier: the product of every axis factor."""
        total = 1
        for ax in self.axes.values():
            total *= ax.factor
        return total

    def resolve_axes(self, trace: OpTrace) -> List[ResolvedAxis]:
        """Bind the plan to a trace, resolving each axis's group family.

        Resolution order: explicit :attr:`ScaleAxis.groups`, then the
        trace's ``axes`` metadata (populated by :func:`price_plan` from
        the DP x TP x PP layout), then — for ``dp`` — the group spanning
        the whole captured world."""
        out: List[ResolvedAxis] = []
        for name, ax in self.axes.items():
            groups = ax.groups
            if groups is None and name in trace.axes:
                groups = tuple(tuple(g) for g in trace.axes[name])
            if groups is None and name == "dp":
                groups = (tuple(range(trace.world_size)),)
            if groups is None:
                raise ValueError(
                    f"axis {name!r} has no captured groups: pass "
                    f"ScaleAxis(groups=...), or capture through launch() so "
                    f"the trace records its axis layout "
                    f"(trace.axes knows {sorted(trace.axes) or 'no axes'})"
                )
            out.append(ResolvedAxis(
                name=name, factor=ax.factor, groups=groups,
                sharded_bytes=ax.sharded_bytes, chain=ax.chain,
            ))
        return out


class RecordedPricer:
    """Fidelity pricer: every op costs exactly what the capture recorded."""

    resolved_axes: Tuple[ResolvedAxis, ...] = ()
    p2p_scale: Dict[int, Tuple[int, int]] = {}

    def collective(self, gid: int, rnd: Dict[str, Any]) -> CollectiveCost:
        return CollectiveCost(
            rnd["seconds"], rnd["wire_bytes"], rnd["algorithm"])

    def p2p(self, gid: int, src: int, dst: int, nbytes: int,
            recorded: Tuple[int, float]) -> CollectiveCost:
        wire, seconds = recorded
        return CollectiveCost(seconds, wire, "direct")

    def multiplicity(self, gid: int) -> int:
        return 1


class ModelPricer:
    """Re-price the captured ops through a fabric cost model, widening
    every captured group by the product of the factors of the plan axes it
    lies along."""

    def __init__(self, trace: OpTrace, fabric: Fabric,
                 plan: Optional[ScalePlan] = None) -> None:
        self.trace = trace
        self.model = ProjectedCostModel(fabric)
        self.algorithm = trace.comm_algorithm
        self.resolved_axes: List[ResolvedAxis] = (
            plan or ScalePlan()).resolve_axes(trace)
        world = tuple(range(trace.world_size))
        #: gid -> the axes the group lies along.  Every axis also claims
        #: the whole-world group: the world spans every parallel
        #: dimension, so widening any axis widens it.
        self._matched: Dict[int, Tuple[ResolvedAxis, ...]] = {}
        for gid, ranks in enumerate(trace.groups):
            key = tuple(ranks)
            self._matched[gid] = tuple(
                ax for ax in self.resolved_axes
                if key in ax.group_set or key == world
            )
        #: gid -> (num, den) integer weight for captured p2p counters on
        #: chain-widened groups: a chain of ``s`` stages deepened to
        #: ``k*s`` has ``k*s - 1`` stage boundaries in place of ``s - 1``.
        self.p2p_scale: Dict[int, Tuple[int, int]] = {}
        for gid, m in self._matched.items():
            num = den = 1
            s = len(trace.groups[gid])
            for ax in m:
                if ax.chain and ax.factor > 1 and s >= 2:
                    num *= ax.factor * s - 1
                    den *= s - 1
            if (num, den) != (1, 1):
                self.p2p_scale[gid] = (num, den)
        self._ranks2: Dict[int, Tuple[int, ...]] = {}
        self._cache: Dict[Tuple[int, str, int], CollectiveCost] = {}

    def widening(self, gid: int) -> int:
        """Product of the factors of every axis the group lies along."""
        w = 1
        for ax in self._matched[gid]:
            w *= ax.factor
        return w

    def group_ranks(self, gid: int) -> Tuple[int, ...]:
        ranks2 = self._ranks2.get(gid)
        if ranks2 is None:
            ranks = self.trace.groups[gid]
            w = self.widening(gid)
            if w > 1:
                ranks2 = tuple(range(len(ranks) * w))
            else:
                ranks2 = tuple(ranks)
            self._ranks2[gid] = ranks2
        return ranks2

    def multiplicity(self, gid: int) -> int:
        """How many copies of this group the projected world hosts: the
        product of the factors of every axis the group does *not* lie
        along."""
        matched = {ax.name for ax in self._matched[gid]}
        m = 1
        for ax in self.resolved_axes:
            if ax.name not in matched:
                m *= ax.factor
        return m

    def collective(self, gid: int, rnd: Dict[str, Any]) -> CollectiveCost:
        """Price a captured round through :data:`~repro.comm.cost.OP_PRICE`
        at the byte argument the run priced it at: the largest member
        payload (the root's, for a rooted op)."""
        op = str(rnd["op"])
        ns = rnd.get("nbytes") or [0]
        n = max(ns)
        key = (gid, op, n)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        price = OP_PRICE.get(op)
        if price is None:
            raise ReplayStall(
                f"model mode cannot price captured op {op!r}; "
                f"known ops: {sorted(OP_PRICE)}"
            )
        ranks = self.trace.groups[gid]
        ranks2 = self.group_ranks(gid)
        p, p2 = len(ranks), len(ranks2)
        if p2 != p and n and op in DEFAULT_SCALING:
            n = max(1, (n * p) // p2)
        cost = self._cache[key] = price(self.model, ranks2, n, self.algorithm)
        return cost

    def p2p(self, gid: int, src: int, dst: int, nbytes: int,
            recorded: Tuple[int, float]) -> CollectiveCost:
        return self.model.p2p(src, dst, nbytes)


@dataclass
class ReplayResult:
    trace: OpTrace
    plan: ScalePlan
    clocks: List[SimClock]
    streams: List[StreamClock]
    counters: Dict[int, CommCounters]
    multiplicity: Dict[int, int]
    #: the plan's axes bound to the trace (empty for recorded replays)
    axes: Dict[str, "ResolvedAxis"] = field(default_factory=dict)
    #: gid -> (num, den) chain-deepening weight on captured p2p counters
    p2p_scale: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    @property
    def step_time(self) -> float:
        times = [c.time for c in self.clocks] + [s.time for s in self.streams]
        return max(times) if times else 0.0

    @property
    def target_world(self) -> int:
        return self.trace.world_size * self.plan.total_factor()


class ReplayEngine:
    """The single-threaded driver of the timelines — and their *host*: it
    holds the replayed ``clocks`` / ``comm_streams`` and the ``tracer`` the
    :class:`~repro.comm.timeline.GroupTimeline` rules act on, where the
    threaded run's host is the ``SpmdRuntime``."""

    def __init__(self, trace: OpTrace, pricer: Any,
                 plan: Optional[ScalePlan] = None,
                 tracer: Optional[Any] = None) -> None:
        self.trace = trace
        self.pricer = pricer
        self.plan = plan or ScalePlan()
        n = trace.world_size
        self.clocks = [SimClock() for _ in range(n)]
        self.comm_streams = [StreamClock() for _ in range(n)]
        self.tracer = None
        #: per gid, in the capture's group order
        self.timelines = [GroupTimeline(self, ranks) for ranks in trace.groups]
        #: (gid, src, dst, tag) -> queued (availability, nbytes) per message
        self._mailbox: Dict[Tuple[int, int, int, Any], deque] = {}
        self._rounds: Dict[Tuple[int, int], Round] = {}
        #: per rank: stream-send id -> (timeline, transfer end, seconds)
        self._sids: List[Dict[int, Tuple[GroupTimeline, float, float]]] = [
            {} for _ in range(n)
        ]
        self._pos = [0] * n
        if tracer is not None:
            tracer.install(self)  # clock observers, and ``self.tracer``

    def rewire(self) -> None:
        """A replay has no lifecycle hooks: its timelines read ``tracer``."""

    # -- public ------------------------------------------------------------

    def run(self) -> ReplayResult:
        streams = self.trace.streams
        n = self.trace.world_size
        while True:
            progress = False
            done = True
            for rank in range(n):
                if self._pos[rank] < len(streams[rank]):
                    done = False
                    if self._drain(rank):
                        progress = True
            if done:
                break
            if not progress:
                stuck = {
                    r: streams[r][self._pos[r]][0]
                    for r in range(n) if self._pos[r] < len(streams[r])
                }
                raise ReplayStall(
                    f"replay stalled with pending events {stuck}: the trace "
                    "is truncated or internally inconsistent"
                )
        return ReplayResult(
            trace=self.trace, plan=self.plan, clocks=self.clocks,
            streams=self.comm_streams,
            counters={gid: tl.counters
                      for gid, tl in enumerate(self.timelines)},
            multiplicity={
                gid: self.pricer.multiplicity(gid)
                for gid in range(len(self.trace.groups))
            },
            axes={ax.name: ax for ax in self.pricer.resolved_axes},
            p2p_scale=dict(self.pricer.p2p_scale),
        )

    # -- event loop --------------------------------------------------------

    def _drain(self, rank: int) -> bool:
        """Run ``rank``'s stream until it blocks or ends.  Clock advances —
        most of any stream — are swept a run at a time by
        :meth:`SimClock.advance_run`; under a tracer a labelled advance is
        its own run, annotated.  Every other tag goes straight to its
        handler, which returns False when the rank must wait."""
        stream = self.trace.streams[rank]
        start = pos = self._pos[rank]
        end = len(stream)
        clock = self.clocks[rank]
        scale = self.plan.compute_scale
        tracer = self.tracer
        while pos < end:
            ev = stream[pos]
            tag = ev[0]
            if tag == "a":
                if tracer is None or ev[3] is None:
                    pos = clock.advance_run(stream, pos, scale,
                                            tracer is not None)
                    continue
                _t, category, dt, label = ev
                t0 = clock.time
                clock.advance(dt if scale == 1.0 else dt * scale, category)
                tracer.annotate(rank, category, label, t0, clock.time)
            else:
                handler = self._HANDLERS.get(tag)
                if handler is None:
                    raise ReplayStall(f"unknown capture event tag {tag!r}")
                if not handler(self, rank, ev):
                    break
            pos += 1
        self._pos[rank] = pos
        return pos > start

    # -- per-event drivers: decode, then the call the threaded run made ----

    def _enter(self, rank: int, key: Tuple[int, int],
               mode: str) -> Tuple[GroupTimeline, Round]:
        """``rank`` enters round ``key = (gid, seq)``; the last arriver
        prices it and places it on the group's timeline (what
        ``ProcessGroup._finalize_round`` does with a live round)."""
        rnd = self._rounds.get(key)
        if rnd is None:
            rnd = self._rounds[key] = Round(key[1], mode)
        tl = self.timelines[key[0]]
        me = tl.local_of[rank]
        if me not in rnd.entry_times:  # a blocked rank re-enters each sweep
            rnd.entry_times[me] = self.clocks[rank].time
            if len(rnd.entry_times) == tl.size:
                facts = self.trace.rounds[key]
                tl.place(rnd, str(facts["op"]),
                         self.pricer.collective(key[0], facts),
                         facts.get("itemsize", 1))
                rnd.done = True
                if self.tracer is not None:
                    tl.mark(rnd)
        return tl, rnd

    def _ev_collective(self, rank: int, ev: Tuple[Any, ...]) -> bool:
        key = ev[1:]
        tl, rnd = self._enter(rank, key, "sync")
        if not rnd.done:
            return False
        rnd.claimed += 1
        if rnd.claimed == tl.size:
            del self._rounds[key]
        return True

    def _ev_solo(self, rank: int, ev: Tuple[Any, ...]) -> bool:
        _t, gid, info = ev
        self.timelines[gid].solo(
            rank, str(info["op"]), self.pricer.collective(gid, info),
            info.get("itemsize", 1))
        return True

    def _ev_issue(self, rank: int, ev: Tuple[Any, ...]) -> bool:
        self._enter(rank, ev[1:], "async")
        return True

    def _ev_coll_wait(self, rank: int, ev: Tuple[Any, ...]) -> bool:
        key = ev[1:]
        rnd = self._rounds.get(key)
        if rnd is None or not rnd.done:
            return False
        tl = self.timelines[key[0]]
        tl.settle(rank, rnd.op, rnd.t_end - rnd.t_start, rnd.t_end)
        rnd.claimed += 1
        if rnd.claimed == tl.size:
            del self._rounds[key]
        return True

    def _ev_send(self, rank: int, ev: Tuple[Any, ...]) -> bool:
        _t, gid, dst, tag, nbytes, wire, elements, seconds = ev
        cost = self.pricer.p2p(gid, rank, dst, nbytes, (wire, seconds))
        t_avail = self.timelines[gid].send(
            rank, self.clocks[rank].time, cost, elements, dst, nbytes)
        self._mailbox.setdefault((gid, rank, dst, tag), deque()).append(
            (t_avail, nbytes))
        return True

    def _ev_stream_send(self, rank: int, ev: Tuple[Any, ...]) -> bool:
        _t, gid, sid, dst, tag, nbytes, wire, elements, seconds = ev
        cost = self.pricer.p2p(gid, rank, dst, nbytes, (wire, seconds))
        tl = self.timelines[gid]
        t_end = tl.stream_send(rank, cost, elements, dst, nbytes)
        self._mailbox.setdefault((gid, rank, dst, tag), deque()).append(
            (t_end, nbytes))
        self._sids[rank][sid] = (tl, t_end, cost.seconds)
        return True

    def _ev_stream_wait(self, rank: int, ev: Tuple[Any, ...]) -> bool:
        tl, t_end, seconds = self._sids[rank].pop(ev[1])
        tl.settle(rank, "isend", seconds, t_end)
        return True

    def _ev_recv(self, rank: int, ev: Tuple[Any, ...]) -> bool:
        _t, gid, src, tag = ev
        q = self._mailbox.get((gid, src, rank, tag))
        if not q:
            return False
        t_avail, nbytes = q.popleft()
        self.timelines[gid].arrive(rank, src, t_avail, nbytes)
        return True

    _HANDLERS = {
        "c": _ev_collective,
        "c1": _ev_solo,
        "ic": _ev_issue,
        "cw": _ev_coll_wait,
        "ps": _ev_send,
        "pss": _ev_stream_send,
        "psw": _ev_stream_wait,
        "pr": _ev_recv,
    }
