"""SPMD thread launcher.

``SpmdRuntime.run(fn)`` executes ``fn(ctx)`` once per rank, each on its own
thread, in the style of ``mpiexec -n N python script.py``.  NumPy releases
the GIL for array work, so rank threads overlap where it matters; more
importantly, *simulated* time is tracked per rank by :class:`SimClock`, so
host-thread scheduling never affects measured results.  A program with
one decision for every rank (the serving replica) runs thread-free on the
calling thread through ``SpmdRuntime.drive(fn)``, in the same lifecycle.

Failure handling: if any rank raises, the runtime trips an abort flag that
every blocking communication primitive polls; all other ranks then raise
:class:`SpmdAborted`, threads are joined, the failed program's rounds and
undelivered messages are dropped, and the original exception is re-raised
on the launcher thread wrapped in :class:`RemoteRankError`.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.machine import ClusterSpec
from repro.runtime.clock import SimClock, StreamClock
from repro.runtime.errors import CollectiveTimeout, RemoteRankError, SpmdAborted
from repro.utils.backoff import RetryPolicy

_thread_local = threading.local()

#: Default host-time limit for any single blocking communication call.
#: Generous — it exists to turn accidental deadlocks into diagnosable
#: errors.  Override per runtime via ``SpmdRuntime(deadlock_timeout=...)``.
_DEADLOCK_TIMEOUT = 120.0

#: With ``stall`` hooks installed, parked waiters still wake on this cadence
#: to run them — the sanitizer's desync-diagnosis latency, not a liveness
#: mechanism (completion and abort are notify-driven).
_STALL_WINDOW = 0.05

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


class RankContext:
    """Everything one rank's thread needs: identity, device handles, clock,
    RNG, execution mode and a slot for the parallel context."""

    def __init__(
        self,
        runtime: "SpmdRuntime",
        rank: int,
        materialize: bool,
        seed: int,
    ) -> None:
        self.runtime = runtime
        self.rank = rank
        self.world_size = runtime.world_size
        self.cluster = runtime.cluster
        self.device = runtime.cluster.device(rank)
        self.cpu = runtime.cluster.cpu_of(rank)
        self.clock = runtime.clocks[rank]
        self.materialize = materialize
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.parallel_context: Optional[Any] = None  # set by repro.context

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RankContext(rank={self.rank}/{self.world_size}, device={self.device.name})"


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
    """Point-to-point message store: (src, dst, tag) -> FIFO of payloads."""

    def __init__(self, timeout: float = _DEADLOCK_TIMEOUT) -> None:
        self._cond = threading.Condition()
        self._boxes: Dict[Tuple[int, int, Any], List[Any]] = {}
        self._timeout = timeout

    def put(self, key: Tuple[int, int, Any], item: Any) -> None:
        with self._cond:
            self._boxes.setdefault(key, []).append(item)
            self._cond.notify_all()

    def get(self, key: Tuple[int, int, Any], should_abort: Callable[[], bool]) -> Any:
        # event-driven: put() notifies, abort wakes via wake(); the deadline
        # is real monotonic elapsed time, not accumulated poll intervals
        deadline_ts = time.monotonic() + self._timeout
        with self._cond:
            while True:
                box = self._boxes.get(key)
                if box:
                    item = box.pop(0)
                    if not box:
                        del self._boxes[key]
                    return item
                if should_abort():
                    raise _make_abort_error()
                remaining = deadline_ts - time.monotonic()
                if remaining <= 0:
                    raise CollectiveTimeout(
                        "recv", key[:2], timeout=self._timeout
                    )
                self._cond.wait(remaining)

    def wake(self) -> None:
        """Wake blocked receivers so they re-check the abort flag."""
        with self._cond:
            self._cond.notify_all()

    def clear(self) -> None:
        """Drop all undelivered messages (stale state after an abort)."""
        with self._cond:
            self._boxes.clear()
            self._cond.notify_all()


def _make_abort_error() -> SpmdAborted:
    ctx = current_rank_context()
    failed_rank, cause = ctx.runtime.failure  # type: ignore[misc]
    return SpmdAborted(failed_rank, cause)


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
        deadlock_timeout: float = _DEADLOCK_TIMEOUT,
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
        if world_size > cluster.world_size:
            raise ValueError(
                f"world_size {world_size} exceeds cluster size {cluster.world_size}"
            )
        if deadlock_timeout <= 0:
            raise ValueError(
                f"deadlock_timeout must be positive, got {deadlock_timeout}"
            )
        from repro.comm.algorithms import check_algorithm  # comm builds on runtime

        check_algorithm(comm_algorithm)
        #: default collective algorithm for every process group's cost model
        self.comm_algorithm = comm_algorithm
        #: route nonblocking p2p and scheduler comm through per-rank comm
        #: streams (comm/compute overlap) instead of legacy blocking-on-wait
        #: semantics; i-collectives always use the streams.
        self.comm_overlap = bool(comm_overlap)
        self.cluster = cluster
        self.world_size = world_size
        self.clocks = [SimClock() for _ in range(world_size)]
        #: per-rank communication streams (see StreamClock); only populated
        #: with occupancy when nonblocking primitives are used.
        self.comm_streams = [StreamClock() for _ in range(world_size)]
        self.deadlock_timeout = float(deadlock_timeout)
        self.mailboxes = _Mailboxes(self.deadlock_timeout)
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
        #: set when a rank fails; blocked waiters test it inline
        self.aborted = threading.Event()
        self.failure: Optional[Tuple[int, BaseException]] = None
        self._group_lock = threading.Lock()
        self._groups: Dict[Tuple[int, ...], Any] = {}
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
        #: the longest a parked waiter sleeps before re-checking its round
        self.park_slice = _STALL_WINDOW if self.on_stall else math.inf

    # -- failure propagation -------------------------------------------------

    def signal_failure(self, rank: int, exc: BaseException) -> None:
        if self.failure is None:
            self.failure = (rank, exc)
        self.aborted.set()
        # rendezvous waits are notify-driven, so blocked peers must be woken
        # explicitly or they would sleep through the abort until their
        # deadlock timeout
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

    def check_abort(self) -> None:
        if self.aborted.is_set():
            failed_rank, cause = self.failure  # type: ignore[misc]
            raise SpmdAborted(failed_rank, cause)

    # -- process groups -------------------------------------------------------

    def group(self, ranks: Sequence[int]) -> Any:
        """Idempotently create/fetch the :class:`ProcessGroup` over ``ranks``.

        Safe to call concurrently from every member rank; all receive the
        same object.  (Deferred import: comm builds on runtime.)
        """
        from repro.comm.group import ProcessGroup

        key = tuple(ranks)
        with self._group_lock:
            grp = self._groups.get(key)
            if grp is None:
                grp = ProcessGroup(self, list(key))
                self._groups[key] = grp
            return grp

    def apply_comm(self, comm: Any) -> None:
        """Apply a ``comm`` config section (:class:`~repro.config.CommConfig`)
        to this runtime and every live process group: ``algorithm=None``
        and ``overlap=False`` keep the runtime's choice.  The cost models'
        memos are keyed by algorithm, so the next collective prices under
        the new one."""
        from repro.comm.algorithms import check_algorithm

        algorithm = comm.algorithm or self.comm_algorithm
        check_algorithm(algorithm)
        with self._group_lock:
            self.comm_algorithm = algorithm
            self.comm_overlap = self.comm_overlap or comm.overlap
            for grp in self._groups.values():
                grp.cost_model.algorithm = algorithm

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
        """Run ``fn(ctx, *args, **kwargs)`` on every rank; return per-rank
        results in rank order.

        ``materialize=False`` runs the program in spec mode: tensors carry
        shapes/bytes but no data (used for billion-parameter experiments).
        """
        self.reset_clocks()
        self._begin()

        results: List[Any] = [None] * self.world_size

        def worker(rank: int) -> None:
            ctx = RankContext(self, rank, materialize, seed=seed * 100003 + rank)
            _thread_local.ctx = ctx
            t_start = ctx.clock.time
            error: Optional[BaseException] = None
            try:
                results[rank] = fn(ctx, *args, **kwargs)
            except SpmdAborted as exc:
                error = exc  # secondary failure; the primary is re-raised below
            except BaseException as exc:  # noqa: BLE001 - must propagate anything
                error = exc
                self.signal_failure(rank, exc)
            finally:
                for hook in self.on_rank_done:
                    hook(rank, t_start, ctx.clock.time, error)
                _thread_local.ctx = None

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"spmd-rank-{r}")
            for r in range(self.world_size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self._end()
        return results

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
        # on a clean replayed run, a golden stream the program stopped short
        # of is itself a divergence and the sanitizer's end hook raises
        for hook in self.on_end:
            hook(self, self.failure is None)
        if self.failure is not None:
            # the failed program's rounds, undelivered messages and pooled
            # buffers go now, not at the next run; the counters stay
            self._reset_comm_state()
            rank, cause = self.failure
            raise RemoteRankError(rank, cause) from cause
        if self.buffer_pool is not None:
            # clean runs must have returned or adopted every loan; an
            # unreturned scratch buffer is a runtime bug, named here
            self.buffer_pool.check_leaks()

    def _reset_comm_state(self) -> None:
        """Drop stale rendezvous rounds and undelivered messages so the
        runtime is reusable after an aborted program (recovery path)."""
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
