"""SPMD thread launcher.

``SpmdRuntime.run(fn)`` executes ``fn(ctx)`` as every rank's program, in
the style of ``mpiexec -n N python script.py``: in general each rank on its
own thread.  NumPy releases the GIL for array work, so rank threads overlap
where it matters; more importantly, *simulated* time is tracked per rank by
:class:`SimClock`, so host-thread scheduling never affects measured results.

A symmetric spec-mode run (DESIGN §4ab) starts rank 0 alone as the
*representative* of every rank: its world-group rounds close on its own
arrival, and at the end the other ranks copy its clock, stream, pool peak,
sequence numbers and result.  The first point at which ranks could differ
(a read of the rank, another collective, a p2p op, ...) is a *trigger*: the
other ranks then start from the beginning, claim the rounds closed ahead
for them, and the rest of the run is the threaded run.  A program with one
decision for every rank (the serving replica) runs thread-free on the
calling thread through ``SpmdRuntime.drive(fn)``, in the same lifecycle.

Failure handling: if any rank raises, the runtime trips an abort flag that
every blocking communication primitive polls; all other ranks then raise
:class:`SpmdAborted`, threads are joined, the failed program's rounds and
undelivered messages are dropped, and the original exception is re-raised
on the launcher thread wrapped in :class:`RemoteRankError`.  No wait has a
deadline: the moment every live rank is parked, the lowest parked rank
raises the ``stall`` hooks' verdict, or a :class:`CollectiveTimeout`
(:meth:`SpmdRuntime.deadlocked`).
"""

from __future__ import annotations

import functools
import numbers
import threading
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.machine import ClusterSpec
from repro.runtime.clock import SimClock, StreamClock
from repro.runtime.errors import CollectiveTimeout, RemoteRankError, SpmdAborted
from repro.utils.backoff import RetryPolicy

_thread_local = threading.local()

#: The run / round / message lifecycle (DESIGN §4u): for each event the
#: runtime holds ``on_<event>``, the ``on_<event>`` methods of its fault
#: injector, sanitizer, capture recorder and tracer, in that order.
EVENTS = (
    "begin", "rank_done", "end",
    "enter", "stall", "finalize", "complete", "fail",
    "member", "solo",
    "send", "sent", "recv", "received", "wait", "injected",
)


class Observer:
    """One observer kind's slot on a runtime, ``runtime.<slot>``: installing
    an observer replaces the kind's current one, and ``uninstall`` clears
    the slot only while this observer still holds it.  A kind names its
    ``slot`` and wires its clock hooks in ``_attach`` / ``_detach``."""

    slot = ""
    _runtime: Optional["SpmdRuntime"] = None

    def install(self, runtime: "SpmdRuntime") -> "Observer":
        """Attach to ``runtime`` in place of its current observer of this kind."""
        if self._runtime is not None and self._runtime is not runtime:
            self.uninstall()
        current = getattr(runtime, self.slot)
        if current is not None and current is not self:
            current.uninstall()
        self._runtime = runtime
        setattr(runtime, self.slot, self)
        self._attach(runtime)
        runtime.rewire()
        return self

    def uninstall(self) -> None:
        """Detach from the runtime (its hooks revert to zero-cost)."""
        rt, self._runtime = self._runtime, None
        if rt is not None and getattr(rt, self.slot) is self:
            self._detach(rt)
            setattr(rt, self.slot, None)
            rt.rewire()

    def _attach(self, runtime: "SpmdRuntime") -> None:
        pass

    def _detach(self, runtime: "SpmdRuntime") -> None:
        pass


class Identity:
    """The identity attributes of a rank-facing object.  A threaded rank's
    object holds them as plain attributes; the representative's keeps them
    back (:meth:`SpmdRuntime.identify`), and the first read of one is a
    trigger that sets them and starts the other ranks (DESIGN §4ab)."""

    #: how a trigger's reason names the object (``"ctx"`` -> ``ctx.rank``)
    _label = ""
    #: the identity kept back, by attribute; nothing on a threaded rank
    _held: Dict[str, Any] = {}

    def __getattr__(self, name: str) -> Any:
        if name in self._held:
            self._held_by.diverge(f"read of {self._label}.{name}")
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")


class RankContext(Identity):
    """Everything one rank's program needs: identity, device handles, clock,
    RNG, execution mode and a slot for the parallel context.  ``rank``,
    ``seed`` and ``rng`` are identity: a read on the representative is a
    trigger."""

    _label = "ctx"

    def __init__(
        self,
        runtime: "SpmdRuntime",
        rank: int,
        materialize: bool,
        seed: int,
    ) -> None:
        self.runtime = runtime
        #: the rank, for the library's own bookkeeping: reading it is no trigger
        self._rank = rank
        self.world_size = runtime.world_size
        self.cluster = runtime.cluster
        self.device = runtime.cluster.device(rank)
        self.cpu = runtime.cluster.cpu_of(rank)
        self.clock = runtime.clocks[rank]
        self.materialize = materialize
        self.parallel_context: Optional[Any] = None  # set by repro.context
        runtime.identify(self, {
            "rank": rank, "seed": seed, "rng": np.random.default_rng(seed)})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RankContext(rank={self._rank}/{self.world_size}, device={self.device.name})"


#: ``rank_context()``: the calling thread's :class:`RankContext`, ``None``
#: outside an SPMD program.  The one thread-local read of the hot paths
#: (tensor allocation, op dispatch, backward), made once and handed down;
#: a C callable, so it costs no Python frame.
rank_context = functools.partial(getattr, _thread_local, "ctx", None)


def current_rank_context() -> RankContext:
    """:func:`rank_context`, raising outside an SPMD program — library code
    that needs the context should receive it explicitly where possible."""
    ctx = getattr(_thread_local, "ctx", None)
    if ctx is None:
        raise RuntimeError(
            "no SPMD rank context on this thread; call inside SpmdRuntime.run()"
        )
    return ctx


def in_spmd() -> bool:
    return getattr(_thread_local, "ctx", None) is not None


class _Mailboxes:
    """Point-to-point message store: (src, dst, tag) -> FIFO of payloads.
    A receiver parks on the key it waits for; ``put`` takes it out."""

    def __init__(self, runtime: "SpmdRuntime") -> None:
        self._cond = threading.Condition()
        self._boxes: Dict[Tuple[int, int, Any], List[Any]] = {}
        self._runtime = runtime

    def put(self, key: Tuple[int, int, Any], item: Any) -> None:
        with self._cond:
            self._boxes.setdefault(key, []).append(item)
            parked = self._runtime.parked
            if parked and parked.get(key[1]) == key:
                with self._runtime.park_lock:
                    del parked[key[1]]
            self._cond.notify_all()

    def get(self, key: Tuple[int, int, Any]) -> Any:
        # untimed, as ProcessGroup._await_round: put() notifies, abort and
        # a deadlock verdict wake the receiver via wake()
        runtime = self._runtime
        with self._cond:
            box = self._boxes.get(key)
            if not box:
                dst, parked = key[1], runtime.parked
                with runtime.park_lock:
                    parked[dst] = key
                    stuck = len(parked) == runtime.live
                if stuck and not runtime.aborted.is_set():
                    runtime.deadlocked()
                while not box:
                    if runtime.aborted.is_set():
                        runtime.check_abort()
                    if dst not in parked:
                        raise runtime.verdict or CollectiveTimeout("recv", key[:2])
                    self._cond.wait()
                    box = self._boxes.get(key)
            item = box.pop(0)
            if not box:
                del self._boxes[key]
            return item

    def wake(self) -> None:
        """Wake blocked receivers so they re-check the abort flag."""
        with self._cond:
            self._cond.notify_all()

    def clear(self) -> None:
        """Drop all undelivered messages (stale state after an abort)."""
        with self._cond:
            self._boxes.clear()
            self._cond.notify_all()


#: what a representative's result may be and still be shared by every rank
_IMMUTABLE = (type(None), bool, int, float, str)


def _immutable(x: Any) -> bool:
    if type(x) is tuple:
        return all(map(_immutable, x))
    return type(x) in _IMMUTABLE


def _resolve_sanitizer(sanitize: Any) -> Any:
    """Accept the ``sanitize=`` runtime argument in any of its forms:
    ``True`` (all default checks), a :class:`~repro.config.SanitizeConfig`,
    or a ready :class:`~repro.sanitize.CommSanitizer`."""
    from repro.config import SanitizeConfig
    from repro.sanitize import CommSanitizer

    if isinstance(sanitize, CommSanitizer):
        return sanitize
    if sanitize is True:
        return CommSanitizer(checksum=True, race=True)
    if isinstance(sanitize, SanitizeConfig):
        return sanitize.build()
    raise TypeError(
        f"sanitize must be True, a SanitizeConfig or a CommSanitizer, "
        f"got {type(sanitize).__name__}"
    )


class SpmdRuntime:
    """Owns the cluster, clocks, process-group registry and mailboxes for one
    SPMD program (or a sequence of them over the same cluster)."""

    def __init__(
        self,
        cluster: ClusterSpec,
        world_size: Optional[int] = None,
        fault_plan: Optional[Any] = None,
        retry: Optional[RetryPolicy] = None,
        tracer: Optional[Any] = None,
        comm_algorithm: str = "ring",
        sanitize: Optional[Any] = None,
        comm_overlap: bool = False,
        capture: Optional[Any] = None,
        buffer_pool: bool = True,
    ) -> None:
        if world_size is None:
            world_size = cluster.world_size
        if world_size < 1:
            raise ValueError(f"world_size must be at least 1, got {world_size}")
        if world_size > cluster.world_size:
            raise ValueError(
                f"world_size {world_size} exceeds cluster size {cluster.world_size}"
            )
        from repro.comm.cost import CostModel  # comm builds on runtime

        #: the one cost model every process group prices with; its
        #: ``algorithm`` is the runtime's default collective algorithm
        self.cost_model = CostModel(cluster, algorithm=comm_algorithm)
        #: have the library schedulers (DDP, ZeRO chunks, GPipe/1F1B) issue
        #: their traffic nonblocking; every nonblocking primitive rides the
        #: per-rank comm streams whatever this says.
        self.comm_overlap = bool(comm_overlap)
        self.cluster = cluster
        self.world_size = world_size
        self.clocks = [SimClock() for _ in range(world_size)]
        #: per-rank communication streams (see StreamClock); only populated
        #: with occupancy when nonblocking primitives are used.
        self.comm_streams = [StreamClock() for _ in range(world_size)]
        self.mailboxes = _Mailboxes(self)
        #: shared scratch-buffer pool for materialized collectives, or None
        #: (``buffer_pool=False`` — the unpooled reference for parity runs);
        #: pooled and unpooled results are bitwise identical by contract.
        from repro.runtime.buffer_pool import BufferPool

        self.buffer_pool: Optional[BufferPool] = (
            BufferPool() if buffer_pool else None
        )
        self.retry_policy = retry if retry is not None else RetryPolicy()
        #: fault injector (repro.faults.FaultInjector) or None
        self.fault_injector: Optional[Any] = None
        if fault_plan is not None:
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(fault_plan)
        #: spec-mode op plans by signature (repro.autograd.function.OpPlan):
        #: filled on first dispatch, read by every rank, dies with the
        #: runtime.  Reads take no lock; a miss records under
        #: ``op_plan_lock`` after re-checking, so a signature gets one plan.
        self.op_plans: Dict[tuple, Any] = {}
        self.op_plan_lock = threading.Lock()
        #: a materialized run's weight draws (repro.nn.init.param_payload):
        #: (init, shape, dtype, generator state) -> (array, state after the
        #: draw, turn), recorded under ``draw_lock`` after re-checking, so
        #: ranks that draw alike draw once; a draw goes once every rank has
        #: made ``turn`` + 1 draws (``draw_turns``), the rest when the run ends
        self.draws: Dict[tuple, Tuple[np.ndarray, Dict[str, Any], int]] = {}
        self.draw_turns = [0] * self.world_size
        self.draw_lock = threading.Lock()
        #: set when a rank fails; blocked waiters test it inline
        self.aborted = threading.Event()
        self.failure: Optional[Tuple[int, BaseException]] = None
        #: rank threads started and not yet done, and the parked ones by
        #: rank, each with its wait: ``(group, round)`` or a mailbox key
        #: (both under ``park_lock``; see :meth:`deadlocked`)
        self.live = 0
        self.parked: Dict[int, Any] = {}
        self.park_lock = threading.Lock()
        #: what a deadlock's chosen rank raises (None: a CollectiveTimeout)
        self.verdict: Optional[BaseException] = None
        self._group_lock = threading.Lock()
        self._groups: Dict[Tuple[int, ...], Any] = {}
        #: true while rank 0 runs alone for every rank (DESIGN §4ab)
        self.alone = False
        #: how the last ``run`` ran: ``"threaded"`` (it did not qualify for a
        #: representative), ``"representative"`` (rank 0 alone, the others
        #: copied it) or ``"caught_up"`` (rank 0 alone until a trigger)
        self.path = "threaded"
        #: why: what kept the run threaded, or the trigger; None if copied
        self.reason: Optional[str] = None
        #: a test seam: False keeps every run threaded
        self._represent = True
        self._held: List[Identity] = []
        #: starts ranks of the running program, set while rank 0 is alone
        self._start_ranks: Optional[Callable[[range], None]] = None
        # a representative run's starting point, for the copy at its end
        self._before: Dict[Tuple[int, ...], Any] = {}
        self._pools_before: Tuple[int, int, int] = (0, 0, 0)
        #: event tracer (repro.trace.Tracer) or None
        self.tracer: Optional[Any] = None
        #: communication sanitizer (repro.sanitize.CommSanitizer) or None
        self.sanitizer: Optional[Any] = None
        #: op-stream capture recorder (repro.project.CaptureRecorder) or None
        self.capture: Optional[Any] = None
        self.rewire()
        if tracer is not None:
            tracer.install(self)
        if sanitize is not None and sanitize is not False:
            _resolve_sanitizer(sanitize).install(self)
        if capture is not None:
            capture.install(self)

    def rewire(self) -> None:
        """Resolve the installed injector and observers into one tuple of
        hooks per :data:`EVENTS` entry and the rule that places a filled
        round (the injector's retry rule, if there is one).  Every
        ``install`` / ``uninstall`` calls it; nothing per op does."""
        from repro.comm.timeline import GroupTimeline  # comm builds on runtime

        members = (self.fault_injector, self.sanitizer, self.capture,
                   self.tracer)
        for event in EVENTS:
            name = "on_" + event
            hooks = []  # plain loops: a comprehension is a frame per event
            for member in members:
                hook = getattr(member, name, None)
                if hook is not None:
                    hooks.append(hook)
            setattr(self, name, tuple(hooks))
        self.place_round = (GroupTimeline.place if self.fault_injector is None
                            else GroupTimeline.place_retried)

    # -- failure propagation -------------------------------------------------

    def signal_failure(self, rank: int, exc: BaseException) -> None:
        if self.failure is None:
            self.failure = (rank, exc)
        self.aborted.set()
        # rendezvous waits are notify-driven and untimed, so blocked peers
        # must be woken explicitly or they would sleep through the abort
        self.wake_all()

    def wake_all(self) -> None:
        """Notify every group rendezvous condition and the mailboxes.

        Group conditions are notified *after* releasing ``_group_lock``:
        ``wake()`` takes the group's own condition lock, and a rank thread
        holding that lock may be about to call ``runtime.group()`` (which
        takes ``_group_lock``) — acquiring both here would deadlock.
        """
        with self._group_lock:
            groups = list(self._groups.values())
        for grp in groups:
            grp.wake()
        self.mailboxes.wake()

    def deadlocked(self) -> None:
        """Every live rank is parked, and a parked rank leaves the set only
        when its waker takes it out: nothing can ever wake one.  The
        ``stall`` hooks see one snapshot of every wait and may give the
        lowest parked rank's a verdict.  A verdict on a round fails it for
        every member; else that rank alone is taken out and woken, to raise
        the verdict or a :class:`CollectiveTimeout` (DESIGN §4h)."""
        with self.park_lock:
            waits = dict(self.parked)
        rank = min(waits)
        verdict = None
        for hook in self.on_stall:
            verdict = verdict or hook(waits, rank)
        wait = waits[rank]
        if len(wait) == 2 and verdict is not None:  # (group, round)
            wait[0].fail(wait[1], verdict)
            return
        self.verdict = verdict
        with self.park_lock:
            del self.parked[rank]
        (wait[0] if len(wait) == 2 else self.mailboxes).wake()

    def check_abort(self) -> None:
        if self.aborted.is_set():
            failed_rank, cause = self.failure  # type: ignore[misc]
            raise SpmdAborted(failed_rank, cause)

    # -- process groups -------------------------------------------------------

    def group(self, ranks: Sequence[int]) -> Any:
        """Idempotently create/fetch the :class:`ProcessGroup` over ``ranks``.

        Safe to call concurrently from every member rank; all receive the
        same object.  On the representative any group but the world group
        is a trigger: a program names the same ranks on every rank, so a
        singleton it names is one rank's.  (Its own singleton, which each
        rank names differently, comes through :meth:`own_group`.)
        """
        grp = self.own_group(ranks)
        if self.alone and not grp.is_world:
            self.diverge(f"group {tuple(ranks)}")
        return grp

    def own_group(self, ranks: Sequence[int]) -> Any:
        """:meth:`group`, for the caller's own singleton, derived from its
        rank (``ParallelContext``): no trigger, since every rank's program
        asks for its own.  (Deferred import: comm builds on runtime.)"""
        from repro.comm.group import ProcessGroup

        key = tuple(ranks)
        with self._group_lock:
            grp = self._groups.get(key)
            if grp is None:
                grp = ProcessGroup(self, list(key))
                self._groups[key] = grp
            return grp

    @property
    def comm_algorithm(self) -> str:
        """Default collective algorithm: the one cost model's."""
        return self.cost_model.algorithm

    def apply_comm(self, comm: Any) -> None:
        """Apply a ``comm`` config section (:class:`~repro.config.CommConfig`)
        to this runtime: ``algorithm=None`` and ``overlap=False`` keep the
        runtime's choice.  Every process group prices with the runtime's
        one cost model, whose memo is keyed by algorithm, so the next
        collective of any group prices under the new one."""
        from repro.comm.cost import check_algorithm

        algorithm = comm.algorithm or self.cost_model.algorithm
        check_algorithm(algorithm)
        self.cost_model.algorithm = algorithm
        self.comm_overlap = self.comm_overlap or comm.overlap

    @property
    def world_group(self) -> Any:
        return self.group(range(self.world_size))

    # -- launching -------------------------------------------------------------

    def reset_clocks(self) -> None:
        """Every rank's clock and comm stream back to t=0."""
        for c in self.clocks:
            c.reset()
        for s in self.comm_streams:
            s.reset()

    def run(
        self,
        fn: Callable[..., Any],
        *args: Any,
        materialize: bool = True,
        seed: int = 0,
        **kwargs: Any,
    ) -> List[Any]:
        """Run ``fn(ctx, *args, **kwargs)`` as every rank's program; return
        per-rank results in rank order.

        ``materialize=False`` runs the program in spec mode: tensors carry
        shapes/bytes but no data (used for billion-parameter experiments).
        Each rank runs on its own thread, except that a symmetric spec-mode
        run starts rank 0 alone as the representative of every rank; the
        others copy it, or start once a trigger says they could differ
        (DESIGN §4ab).  ``path`` and ``reason`` record which way it went.
        """
        if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
                or seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self.reset_clocks()
        self._begin()

        results: List[Any] = [None] * self.world_size
        threads: List[threading.Thread] = []

        def worker(rank: int) -> None:
            t_start = self.clocks[rank].time
            error: Optional[BaseException] = None
            try:
                ctx = RankContext(self, rank, materialize, seed * 100003 + rank)
                _thread_local.ctx = ctx
                results[rank] = result = fn(ctx, *args, **kwargs)
                if self.alone:
                    self._close_alone(result)
            except SpmdAborted as exc:
                error = exc  # secondary failure; the primary is re-raised below
            except BaseException as exc:  # noqa: BLE001 - must propagate anything
                error = exc
                if self.alone:
                    self.diverge(f"raised {type(exc).__name__}")
                self.signal_failure(rank, exc)
            finally:
                for hook in self.on_rank_done:
                    hook(rank, t_start, self.clocks[rank].time, error)
                _thread_local.ctx = None
                error = None  # no frame <-> traceback cycle outlives the rank
                with self.park_lock:
                    self.live -= 1
                    stuck = self.parked and len(self.parked) == self.live
                if stuck and not self.aborted.is_set():
                    self.deadlocked()

        def start(ranks: range) -> None:
            with self.park_lock:
                self.live += len(ranks)
            for r in ranks:
                t = threading.Thread(target=worker, args=(r,), name=f"spmd-rank-{r}")
                threads.append(t)
                t.start()

        reason = self._threaded_reason(materialize)
        self.path, self.reason = "threaded", reason
        self.alone = reason is None
        if self.alone:
            self.path = "representative"
            self._start_ranks = start
            self._before = {key: grp.counters.copy() for key, grp in self._groups.items()
                            if key == (0,) or grp.is_world}
            host = self.cluster.cpu_of(0).memory
            self._pools_before = (self.cluster.device(0).memory.allocated,
                                  host.allocated, host.peak)
        start(range(1) if self.alone else range(self.world_size))
        joined = 0
        while joined < len(threads):  # a trigger on rank 0 appends the others
            threads[joined].join()
            joined += 1
        self._start_ranks = None
        if self.alone:
            self._copy_representative(results)
        self._before = {}
        self._end()
        return results

    def _threaded_reason(self, materialize: bool) -> Optional[str]:
        """Why this run cannot start rank 0 alone, or None (DESIGN §4ab)."""
        if not self._represent:
            return "forced"
        if materialize:
            return "materialized"
        if self.world_size == 1:
            return "one rank"
        for name in ("tracer", "sanitizer", "fault_injector"):
            if getattr(self, name) is not None:
                return name.replace("_", " ")
        cluster = self.cluster
        try:
            first = cluster.device(0).state(), cluster.cpu_of(0).state()
            for r in range(1, self.world_size):
                if (cluster.device(r).state(), cluster.cpu_of(r).state()) != first:
                    return "unequal devices"
        except KeyError:  # a GPU with no host: that rank's own set-up fails
            return "unequal devices"
        return None

    def identify(self, obj: Identity, identity: Dict[str, Any]) -> None:
        """Give ``obj`` its ``identity`` attributes; on the representative,
        hold them back until their first read, a trigger."""
        if self.alone:
            obj._held = identity
            obj._held_by = self
            self._held.append(obj)
        else:
            obj.__dict__.update(identity)

    def _reveal(self) -> None:
        """Every held object gets its identity as plain attributes."""
        for obj in self._held:
            obj.__dict__.update(obj._held)
            del obj._held, obj._held_by
        self._held = []

    def diverge(self, reason: str) -> None:
        """A trigger on the representative: the first point at which the
        ranks could differ.  Record it, give rank 0 its identity and start
        every other rank from the beginning; they claim the rounds closed
        ahead for them, then meet rank 0 in live rounds (DESIGN §4ab)."""
        if not self.alone:
            return
        self.alone = False
        self.path, self.reason = "caught_up", reason
        self._reveal()
        self._start_ranks(range(1, self.world_size))

    def _close_alone(self, result: Any) -> None:
        """Rank 0's program ended with no trigger: whether the others may
        copy it, or must run after all."""
        host = self.cluster.cpu_of(0).memory
        if not _immutable(result):
            self.diverge(f"result of type {type(result).__name__}")
        elif self.cluster.device(0).memory.allocated != self._pools_before[0]:
            self.diverge("pool bytes held")
        elif (host.allocated, host.peak) != self._pools_before[1:]:
            self.diverge("host pool used")

    def _copy_representative(self, results: List[Any]) -> None:
        """The end of a run with no trigger: every other rank is left as
        running rank 0's program would have left it — clock and breakdown,
        comm stream, device pool, sequence numbers, singleton-group
        counters and result, and the capture's stream of it."""
        self.alone = False
        self._reveal()
        before = self._before
        for key, grp in list(self._groups.items()):
            if grp.is_world:
                grp.settle_absent(before.get(key))
        clock, stream = self.clocks[0], self.comm_streams[0]
        pool = self.cluster.device(0).memory
        solo = self._groups.get((0,))
        own = None
        for r in range(1, self.world_size):
            results[r] = results[0]
            self.clocks[r].copy_from(clock)
            self.comm_streams[r].copy_from(stream)
            self.cluster.device(r).memory.copy_from(pool)
            if solo is not None:
                own = self.own_group((r,))
                own.mirror(solo, before.get((0,)))
            if self.capture is not None:
                self.capture.copy_rank(r, solo, own)

    def drive(self, fn: Callable[[], Any]) -> None:
        """Run a thread-free driver ``fn()`` as a program of every rank, in
        :meth:`run`'s lifecycle but on clocks it does not reset.  ``fn``
        names a failed rank with :meth:`signal_failure` before raising; the
        other ranks' ``rank_done`` hooks see :class:`SpmdAborted`."""
        self._begin()
        t_start = [clock.time for clock in self.clocks]
        try:
            fn()
        except BaseException:
            if self.failure is None:  # the driver's own error, no rank's
                self._reset_comm_state()
                raise
        failure = self.failure
        for rank, clock in enumerate(self.clocks):
            error: Optional[BaseException] = None
            if failure is not None:
                error = failure[1] if rank == failure[0] else SpmdAborted(*failure)
            for hook in self.on_rank_done:
                hook(rank, t_start[rank], clock.time, error)
        self._end()

    def _begin(self) -> None:
        """Open a program: no stale comm state, ``begin`` hooks, no failure."""
        self._reset_comm_state()
        for hook in self.on_begin:
            hook(self)
        self.aborted.clear()
        self.failure = None

    def _end(self) -> None:
        """Close a program: ``end`` hooks, then its failure or a leak check."""
        self.draws.clear()
        self.draw_turns = [0] * self.world_size
        # on a clean replayed run, a golden stream the program stopped short
        # of is itself a divergence and the sanitizer's end hook raises
        for hook in self.on_end:
            hook(self, self.failure is None)
        if self.failure is not None:
            # the failed program's rounds, undelivered messages and pooled
            # buffers go now, not at the next run; the counters stay
            self._reset_comm_state()
            rank, cause = self.failure
            # and so do its tensors: the traceback keeps each finished frame
            # of the failed rank, and each frame its locals (device bytes)
            traceback.clear_frames(cause.__traceback__)
            raise RemoteRankError(rank, cause) from cause
        if self.buffer_pool is not None:
            # clean runs must have returned or adopted every loan; an
            # unreturned scratch buffer is a runtime bug, named here
            self.buffer_pool.check_leaks()

    def _reset_comm_state(self) -> None:
        """Drop stale rendezvous rounds, undelivered messages and parked
        waits so the runtime is reusable after an aborted program."""
        self.parked.clear()
        self.mailboxes.clear()
        if self.buffer_pool is not None:
            self.buffer_pool.reset()
        with self._group_lock:
            for grp in self._groups.values():
                grp.reset_rounds()

    # -- results ---------------------------------------------------------------

    def max_time(self) -> float:
        """Simulated makespan of the last program (slowest rank; includes
        comm-stream tails so fire-and-forget sends are not under-counted)."""
        return max(
            max(c.time for c in self.clocks),
            max(s.time for s in self.comm_streams),
        )
