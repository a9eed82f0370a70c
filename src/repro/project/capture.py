"""Per-rank op-stream capture for projection.

A :class:`CaptureRecorder` attaches to a :class:`~repro.runtime.spmd.SpmdRuntime`
like the tracer and sanitizer do (its ``on_<event>`` methods join the
runtime's lifecycle hooks, DESIGN §4u) and records, per rank, the ordered
stream of *simulated-time effects* the program produced:

* non-comm clock advances (compute / wait / offload / optimizer / h2d),
  with the **exact** post-slowdown ``dt`` the clock added — replaying the
  same ``dt`` sequence from the same initial state reproduces every clock
  reading bit-for-bit, which observer-based reconstruction (``t1 - t0``)
  cannot do under IEEE-754;
* collective participation events keyed by ``(group, seq)``, with the
  round's finalize facts (op, priced cost, per-rank payload sizes,
  algorithm) stored once in a shared rounds table by whichever thread
  finalized the rendezvous;
* point-to-point sends/receives and stream-send issue/wait pairs, carrying
  the priced cost inline.

All ``comm``-category clock movement is *excluded* from the advance stream:
it is regenerated by the replay engine from the collective/p2p events, which
is what lets :func:`repro.project.project` re-price the same op stream for a
different world size or fabric.

Capture is incompatible with fault injection (injected retries and
slowdowns are host-nondeterministic control flow the trace does not model);
:meth:`CaptureRecorder.install` rejects a runtime with an injector armed.
The tracer and sanitizer compose fine — capture uses its own clock slot.

A captured spec run may start rank 0 alone as every rank's representative
(DESIGN §4ab): rounds closed ahead and claimed late reach the recorder's
``member`` hook as live ones do, and when the other ranks copy rank 0 at
the end, the runtime hands each to :meth:`CaptureRecorder.copy_rank`: it
gets rank 0's stream, with every event and round on rank 0's own singleton
group moved onto its own.  The trace still holds one stream per rank,
equal to the threaded run's.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.comm.cost import CollectiveCost
from repro.runtime.spmd import Observer

# Event tags (first tuple element) in a rank's stream:
#   ("a",  category, dt, label)                     non-comm clock advance
#   ("c",  gid, seq)                                blocking collective
#   ("c1", gid, info)                               size-1-group collective
#   ("ic", gid, seq)                                nonblocking collective issue
#   ("cw", gid, seq)                                nonblocking collective wait
#   ("ps", gid, dst, tag, nbytes, wire, elems, s)   blocking send
#   ("pss", gid, sid, dst, tag, nbytes, wire, elems, s)  isend (p2p stream)
#   ("psw", sid)                                    isend wait
#   ("pr", gid, src, tag)                           receive
Event = Tuple[Any, ...]
#: the tags whose second element is not a group id
_GIDLESS = ("a", "psw")


def _payload_nbytes(payload: Any) -> int:
    """Wire-relevant byte size of one rank's rendezvous payload: arrays /
    SpecArrays report ``nbytes``; ``all_to_all`` passes a chunk list
    (summed); control payloads (``split`` colour tuples, ``None``) are 0."""
    if payload is None:
        return 0
    if isinstance(payload, (list, tuple)):
        return sum(
            int(c.nbytes) for c in payload if hasattr(c, "nbytes")
        )
    if hasattr(payload, "nbytes"):
        return int(payload.nbytes)
    return 0


@dataclass
class OpTrace:
    """Immutable-by-convention snapshot of one captured SPMD run."""

    world_size: int
    comm_algorithm: str
    cluster: Any
    #: per-gid member tuples (global ranks)
    groups: List[Tuple[int, ...]] = field(default_factory=list)
    #: per-rank event streams
    streams: List[List[Event]] = field(default_factory=list)
    #: (gid, seq) -> round facts dict
    rounds: Dict[Tuple[int, int], Dict[str, Any]] = field(default_factory=dict)
    #: per-rank device memory peaks (bytes) at end of run
    peak_memory: List[int] = field(default_factory=list)
    #: simulated makespan of the captured run
    max_time: float = 0.0
    #: named parallel-axis layout of the captured run: axis name (``dp`` /
    #: ``tp`` / ``pp``) -> family of captured rank tuples.  Populated by
    #: :func:`repro.project.price_plan` from the DP x TP x PP layout
    #: so a hybrid :class:`~repro.project.replay.ScalePlan` can
    #: resolve ``axes={...}`` by name; empty for bare ``capture_run``
    #: traces (pass explicit ``ScaleAxis.groups`` there).
    axes: Dict[str, Tuple[Tuple[int, ...], ...]] = field(default_factory=dict)

    def event_count(self) -> int:
        return sum(len(s) for s in self.streams)


class _ClockCapture:
    """Per-clock capture callback binding a rank id.  Non-comm advances are
    recorded with their exact ``dt``; comm advances are skipped — replay
    regenerates them from the collective/p2p events."""

    __slots__ = ("_rec", "_rank")

    def __init__(self, rec: "CaptureRecorder", rank: int) -> None:
        self._rec = rec
        self._rank = rank

    def __call__(self, category: str, dt: float) -> None:
        if category != "comm":
            rec, rank = self._rec, self._rank
            label = rec._pending_label[rank]
            if label is not None:
                rec._pending_label[rank] = None
            rec._streams[rank].append(("a", category, dt, label))


class CaptureRecorder(Observer):
    """Records one SPMD run's per-rank op streams into an :class:`OpTrace`.

    Usage::

        rec = CaptureRecorder()
        rt = SpmdRuntime(cluster, world, capture=rec)   # or rec.install(rt)
        rt.run(fn, materialize=False)
        trace = rec.trace()
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._streams: List[List[Event]] = []
        self._rounds: Dict[Tuple[int, int], Dict[str, Any]] = {}
        self._groups: List[Tuple[int, ...]] = []
        self._gid_by_key: Dict[Tuple[int, ...], int] = {}
        self._pending_label: List[Optional[str]] = []
        self._sids: List[int] = []
        #: an outstanding stream send's handle -> its per-rank id
        self._sid_of: Dict[Any, int] = {}
        self._trace: Optional[OpTrace] = None

    # -- lifecycle ---------------------------------------------------------

    slot = "capture"

    def install(self, runtime: Any) -> "CaptureRecorder":
        if runtime.fault_injector is not None:
            raise RuntimeError(
                "capture cannot run under fault injection: injected retries "
                "and slowdowns are host-nondeterministic control flow the "
                "projected op stream does not model"
            )
        return super().install(runtime)

    def _attach(self, runtime: Any) -> None:
        for rank, clock in enumerate(runtime.clocks):
            clock.set_capture(_ClockCapture(self, rank))

    def _detach(self, runtime: Any) -> None:
        for clock in runtime.clocks:
            clock.set_capture(None)

    def on_begin(self, runtime: Any) -> None:
        world = runtime.world_size
        with self._lock:
            self._streams = [[] for _ in range(world)]
            self._rounds = {}
            self._groups = []
            self._gid_by_key = {}
            self._pending_label = [None] * world
            self._sids = [0] * world
            self._sid_of = {}
            self._trace = None

    def on_end(self, runtime: Any, ok: bool) -> None:
        """A completed run's streams become :meth:`trace`; a failed run
        leaves none."""
        if not ok:
            return
        with self._lock:
            self._trace = OpTrace(
                world_size=runtime.world_size,
                comm_algorithm=runtime.comm_algorithm,
                cluster=runtime.cluster,
                groups=list(self._groups),
                streams=[list(s) for s in self._streams],
                rounds=dict(self._rounds),
                peak_memory=[
                    runtime.cluster.device(r).memory.peak
                    for r in range(runtime.world_size)
                ],
                max_time=runtime.max_time(),
            )

    def copy_rank(self, rank: int, solo: Any, own: Any) -> None:
        """``rank`` ran rank 0's program (the end of a represented run, every
        rank thread joined, DESIGN §4ab): it gets rank 0's stream, in which
        rank 0's own singleton group ``solo`` is ``rank``'s own group ``own``,
        round facts included (``solo`` None: rank 0 has none)."""
        stream = self._streams[0]
        a = None if solo is None else self._gid_by_key.get(tuple(solo.ranks))
        if a is None:  # no event names rank 0's singleton
            self._streams[rank] = list(stream)
            return
        b = self._gid(own)
        self._streams[rank] = [
            (ev[0], b, *ev[2:]) if ev[0] not in _GIDLESS and ev[1] == a else ev
            for ev in stream]
        for (gid, seq), facts in list(self._rounds.items()):
            if gid == a:
                self._rounds[b, seq] = facts

    def trace(self) -> OpTrace:
        """The :class:`OpTrace` of the last completed run."""
        if self._trace is None:
            raise RuntimeError(
                "no completed capture: run the program to completion first"
            )
        return self._trace

    # -- interning ---------------------------------------------------------

    def _gid(self, group: Any) -> int:
        key = tuple(group.ranks)
        with self._lock:
            gid = self._gid_by_key.get(key)
            if gid is None:
                gid = len(self._groups)
                self._groups.append(key)
                self._gid_by_key[key] = gid
            return gid

    # -- hook entry points -------------------------------------------------

    def note_op(self, rank: int, name: str) -> None:
        """Label the next compute advance on ``rank`` with an op name
        (called by ``Function.apply`` / the autograd engine)."""
        self._pending_label[rank] = name

    def on_solo(self, rank: int, group: Any, seq: int, op: str,
                cost: CollectiveCost, itemsize: int, payloads: Dict[int, Any],
                results: Dict[int, Any], extra: Dict[str, Any]) -> None:
        """A collective on a size-1 group (no shared round state), its facts
        inline on the event."""
        info = {
            "op": op,
            "seconds": cost.seconds,
            "wire_bytes": cost.wire_bytes,
            "elements": cost.wire_bytes // max(itemsize, 1),
            "algorithm": cost.algorithm,
            "itemsize": itemsize,
            "nbytes": [_payload_nbytes(payloads[0])],
        }
        self._streams[rank].append(("c1", self._gid(group), info))

    def on_complete(self, group: Any, rnd: Any) -> None:
        """Round facts, written once by the finalizing thread (under the
        group's condition lock, so per-(gid, seq) writes never race)."""
        gid = self._gid(group)
        payloads = rnd.payloads
        ns = [_payload_nbytes(payloads[i]) for i in sorted(payloads)]
        cost = rnd.cost
        with self._lock:
            self._rounds[(gid, rnd.seq)] = {
                "op": rnd.op,
                "mode": rnd.mode,
                "seconds": cost.seconds,
                "wire_bytes": cost.wire_bytes,
                "algorithm": cost.algorithm,
                "itemsize": rnd.itemsize,
                "nbytes": ns,
            }

    def on_member(self, rank: int, group: Any, seq: int, tag: str) -> None:
        """One rank's participation in a multi-member round: ``"c"``
        (blocking), ``"ic"`` (nonblocking issue) or ``"cw"`` (handle wait)."""
        self._streams[rank].append((tag, self._gid(group), seq))

    def on_sent(self, src: int, dst: int, key: Any, payload: Any, group: Any,
                tag: Any, kind: str, cost: CollectiveCost,
                handle: Any) -> None:
        """A blocking ``send`` (``"ps"``) or an ``isend`` on the sender's
        p2p stream (``"pss"``, numbered per rank for its ``wait()`` to
        name)."""
        facts = (dst, tag, int(payload.nbytes), cost.wire_bytes,
                 int(payload.size), cost.seconds)
        if kind == "pss":
            sid = self._sid_of[handle] = self._sids[src]
            self._sids[src] = sid + 1
            self._streams[src].append(("pss", self._gid(group), sid) + facts)
        else:
            self._streams[src].append((kind, self._gid(group)) + facts)

    def on_received(self, src: int, dst: int, key: Any, payload: Any,
                    group: Any, tag: Any) -> None:
        self._streams[dst].append(("pr", self._gid(group), src, tag))

    def on_wait(self, rank: int, handle: Any) -> None:
        """An ``isend`` handle's ``wait()``, by its send's id."""
        self._streams[rank].append(("psw", self._sid_of.pop(handle)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n = sum(len(s) for s in self._streams)
        return f"CaptureRecorder(ranks={len(self._streams)}, events={n})"
