"""Fault injection against a running SPMD program.

A :class:`FaultInjector` binds a :class:`FaultPlan` to one
:class:`~repro.runtime.spmd.SpmdRuntime`, whose lifecycle hooks it joins
ahead of the observers (DESIGN §4u): :meth:`on_begin` at the start of every
``run`` (applying stragglers to the per-rank clocks and link degradations
to the topology, and resetting per-run attempt counters), then

* :meth:`on_enter` / :meth:`on_send` / :meth:`on_recv` / :meth:`on_step` —
  raise :class:`~repro.runtime.errors.RankFailure` when a scheduled crash
  fires,
* :meth:`p2p_verdict` — deliver / drop / corrupt one transmission attempt
  on a directed link (``GroupTimeline.retry_p2p`` retries under the
  runtime's :class:`~repro.utils.backoff.RetryPolicy`),
* :meth:`collective_verdict` — how many retransmission rounds a collective
  call needs, or whether it is permanently dead
  (``GroupTimeline.place_retried``).

Crash events fire **once per injector** (not once per run): after an
aborted run the "node" is considered replaced, so a resumed program on the
same runtime does not immediately re-crash.  All other fault budgets reset
on :meth:`on_begin`, i.e. per run.

When a :class:`~repro.sanitize.CommSanitizer` runs in checksum mode it
attributes every injector-scheduled corruption/glitch to the fault plan
(``ChecksumEvent(injected=True)``) — so a checksum mismatch the injector
does **not** own is reported as a logic bug, not noise.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Sequence, Set, Tuple

from repro.faults.plan import (
    CollectiveGlitch,
    FaultPlan,
    LinkDegrade,
    MessageFault,
    RankCrash,
    Straggler,
)
from repro.runtime.errors import RankFailure

#: p2p_verdict outcomes
DELIVER = "deliver"
DROP = "drop"
CORRUPT = "corrupt"


class FaultInjector:
    """Stateful executor of one :class:`FaultPlan` (thread-safe)."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._consumed: Dict[int, int] = {}  # event index -> uses this run
        self._p2p_attempts: Dict[Tuple[int, int], int] = {}
        self._coll_calls: Dict[int, int] = {}
        self._fired_crashes: Set[int] = set()  # persists across runs
        self.stats: Dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------

    def on_begin(self, runtime: Any) -> None:
        """Bind to ``runtime`` for one run: validate ranks, apply stragglers
        and link degradations, reset per-run fault budgets."""
        world = runtime.world_size
        for ev in self.plan.events:
            for r in _ranks_of(ev):
                if not 0 <= r < world:
                    raise ValueError(
                        f"fault event {ev} names rank {r} outside world "
                        f"size {world}"
                    )
        with self._lock:
            self._consumed.clear()
            self._p2p_attempts.clear()
            self._coll_calls.clear()
            self.stats = {"dropped": 0, "corrupted": 0, "glitched": 0, "crashed": 0}
        for clock in runtime.clocks:
            clock.clear_slowdowns()
        topo = runtime.cluster.topology
        topo.restore_links()
        for ev in self.plan.events:
            if isinstance(ev, Straggler):
                runtime.clocks[ev.rank].set_slowdown(ev.factor, ev.start, ev.end)
            elif isinstance(ev, LinkDegrade):
                topo.scale_link(
                    runtime.cluster.gpus[ev.src].name,
                    runtime.cluster.gpus[ev.dst].name,
                    ev.factor,
                )

    # -- crash events -------------------------------------------------------

    def on_step(self, rank: int, step: int) -> None:
        """Raise :class:`RankFailure` if a crash is scheduled for ``rank``
        at training step ``step`` (call at the top of each step)."""
        with self._lock:
            for idx, ev in enumerate(self.plan.events):
                if (isinstance(ev, RankCrash) and ev.rank == rank
                        and ev.at_step == step and idx not in self._fired_crashes):
                    self._fired_crashes.add(idx)
                    self.stats["crashed"] = self.stats.get("crashed", 0) + 1
                    break
            else:
                return
        raise RankFailure(rank, step=step)

    def on_enter(self, rank: int, sim_time: float, *_event: Any) -> None:
        """Raise :class:`RankFailure` if ``rank`` has a crash scheduled at or
        before simulated time ``sim_time`` — the hook of every collective
        entry and receive (the rest of the event is not its business)."""
        with self._lock:
            for idx, ev in enumerate(self.plan.events):
                if (isinstance(ev, RankCrash) and ev.rank == rank
                        and ev.at_time is not None and sim_time >= ev.at_time
                        and idx not in self._fired_crashes):
                    self._fired_crashes.add(idx)
                    self.stats["crashed"] = self.stats.get("crashed", 0) + 1
                    break
            else:
                return
        raise RankFailure(rank, sim_time=sim_time)

    on_recv = on_enter

    def on_send(self, rank: int, sim_time: float, group: Any, dst: int,
                cost: Any, elements: int) -> None:
        """A send's hook: the crash check, then the attempts this plan
        fails before one is delivered (``GroupTimeline.retry_p2p``)."""
        self.on_enter(rank, sim_time)
        group.retry_p2p(rank, dst, cost, elements)

    # -- transport faults ---------------------------------------------------

    def p2p_verdict(self, src: int, dst: int) -> str:
        """Outcome of one transmission attempt on the directed link
        ``src -> dst``: ``"deliver"``, ``"drop"`` or ``"corrupt"``."""
        with self._lock:
            attempt = self._p2p_attempts.get((src, dst), 0)
            self._p2p_attempts[(src, dst)] = attempt + 1
            for idx, ev in enumerate(self.plan.events):
                if not isinstance(ev, MessageFault):
                    continue
                if ev.src != src or ev.dst != dst:
                    continue
                used = self._consumed.get(idx, 0)
                if ev.count is not None and used >= ev.count:
                    continue
                if ev.p < 1.0 and self.plan.coin(idx, src, dst, attempt) >= ev.p:
                    continue
                self._consumed[idx] = used + 1
                kind = CORRUPT if ev.corrupt else DROP
                self.stats["corrupted" if ev.corrupt else "dropped"] = (
                    self.stats.get("corrupted" if ev.corrupt else "dropped", 0) + 1
                )
                return kind
        return DELIVER

    def collective_verdict(
        self, op: str, ranks: Sequence[int], seq: int
    ) -> Tuple[int, bool]:
        """``(failed_attempts, permanent)`` for collective call number
        ``seq`` of ``op`` over ``ranks``."""
        with self._lock:
            for idx, ev in enumerate(self.plan.events):
                if not isinstance(ev, CollectiveGlitch):
                    continue
                if ev.op is not None and ev.op != op:
                    continue
                if ev.ranks is not None and tuple(ev.ranks) != tuple(ranks):
                    continue
                if ev.permanent:
                    return 0, True
                call = self._coll_calls.get(idx, 0)
                self._coll_calls[idx] = call + 1
                used = self._consumed.get(idx, 0)
                if ev.max_glitches is not None and used >= ev.max_glitches:
                    continue
                if ev.p < 1.0 and self.plan.coin(idx, call, seq) >= ev.p:
                    continue
                self._consumed[idx] = used + 1
                self.stats["glitched"] = self.stats.get("glitched", 0) + 1
                return ev.attempts, False
        return 0, False


def _ranks_of(ev: Any) -> Tuple[int, ...]:
    if isinstance(ev, RankCrash):
        return (ev.rank,)
    if isinstance(ev, Straggler):
        return (ev.rank,)
    if isinstance(ev, (MessageFault, LinkDegrade)):
        return (ev.src, ev.dst)
    if isinstance(ev, CollectiveGlitch) and ev.ranks is not None:
        return tuple(ev.ranks)
    return ()
