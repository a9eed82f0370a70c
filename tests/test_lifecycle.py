"""The comm lifecycle's two laws (DESIGN §4u).

* **Observers change nothing.**  A fixed 4-rank program that calls every
  communicator entry point reads the same results, clocks, comm streams and
  per-group counters under every subset of {``Tracer``, full sanitizer,
  ``CaptureRecorder``}, with no fault injector and with an empty
  ``FaultPlan`` — with ``==``, not a tolerance.
* **A failed run leaves no comm state behind.**  ``RemoteRankError`` is
  raised only after the rendezvous rounds, undelivered messages and pooled
  buffers the failed program left are dropped; the counters stay readable.
"""

import itertools

import numpy as np
import pytest

from repro.cluster import system_ii
from repro.comm import Communicator
from repro.faults import FaultPlan
from repro.project import CaptureRecorder
from repro.runtime import RemoteRankError, SpmdRuntime
from repro.sanitize import CommSanitizer
from repro.trace import Tracer

WORLD = 4

_COUNTER_FIELDS = (
    "bytes_total", "elements_total", "calls_total",
    "retries_total", "retry_bytes_total",
    "by_op_bytes", "by_op_elements", "by_op_calls", "by_op_retries",
    "by_algorithm_bytes", "by_algorithm_calls",
    "exposed_seconds_total", "overlapped_seconds_total",
)


def _every_entry_point(ctx):
    comm = Communicator.world(ctx)
    r, n = comm.rank, comm.size
    x = np.arange(8, dtype=np.float32) + r
    out = [
        comm.all_reduce(x), comm.all_reduce(x, op="max"),
        comm.all_gather(x), comm.reduce_scatter(x),
        comm.broadcast(x if r == 0 else None, root=0),
        comm.reduce(x, root=1),
        comm.all_to_all([x[:2] * k for k in range(n)]),
        comm.ring_pass(x, shift=1),
    ]
    comm.barrier()
    half = comm.split(color=r % 2, key=-r)
    out.append(half.all_reduce(x))
    solo = comm.subgroup([r])
    out += [solo.all_reduce(x), solo.broadcast(x), solo.iallreduce(x).wait()]
    handles = [comm.iallreduce(x), comm.iall_gather(x), comm.ireduce_scatter(x)]
    ctx.clock.advance(1e-5 * (r + 1))
    out += [h.wait() for h in reversed(handles)]
    # p2p: a blocking ring, then a nonblocking one, then a pairwise exchange
    comm.send(x * 2, (r + 1) % n, tag=1)
    out.append(comm.recv((r - 1) % n, tag=1))
    send = comm.isend(x * 3, (r + 1) % n, tag=2)
    ctx.clock.advance(1e-5)
    send.wait()
    out.append(comm.recv((r - 1) % n, tag=2))
    out.append(comm.sendrecv(x + 5, (r + 1) % n, (r - 1) % n, tag=3))
    return out


def _canon(value):
    """An ``==``-comparable form: arrays by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    return value


def _end_state(overlap, tracer=None, sanitize=None, capture=None,
               fault_plan=None):
    rt = SpmdRuntime(system_ii(), WORLD, comm_overlap=overlap, tracer=tracer,
                     sanitize=sanitize, capture=capture, fault_plan=fault_plan)
    results = rt.run(_every_entry_point)
    return {
        "results": _canon(results),
        "clocks": [(c.time, c.breakdown()) for c in rt.clocks],
        "streams": [(s.time, s.breakdown()) for s in rt.comm_streams],
        "counters": {key: tuple(getattr(g.counters, f) for f in _COUNTER_FIELDS)
                     for key, g in rt._groups.items()},
    }


_OBSERVERS = ("tracer", "sanitize", "capture")
_CASES = [
    (subset, plan)
    for k in range(len(_OBSERVERS) + 1)
    for subset in itertools.combinations(_OBSERVERS, k)
    for plan in (False, True)
    # capture rejects a runtime with a fault injector armed
    if (subset, plan) != ((), False) and not (plan and "capture" in subset)
]


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize(
    "observers,plan", _CASES,
    ids=["+".join([*s, "plan"] if p else s) for s, p in _CASES])
def test_observers_change_nothing(overlap, observers, plan):
    bare = _end_state(overlap)
    make = {"tracer": Tracer,
            "sanitize": lambda: CommSanitizer(checksum=True, race=True),
            "capture": CaptureRecorder}
    observed = _end_state(overlap, fault_plan=FaultPlan() if plan else None,
                          **{name: make[name]() for name in observers})
    assert observed == bare


def test_capture_stream_is_the_same_under_a_sanitizer():
    """A one-member group's blocking round takes a sequence number whoever
    watches: a nonblocking round after it is captured with the same number
    with or without a sanitizer installed."""

    def streams(sanitize):
        rec = CaptureRecorder()
        SpmdRuntime(system_ii(), WORLD, capture=rec,
                    sanitize=sanitize).run(_every_entry_point)
        trace = rec.trace()  # group ids follow the threads' first use
        return [[ev if ev[0] in ("a", "pw", "psw")
                 else (ev[0], trace.groups[ev[1]], *ev[2:]) for ev in stream]
                for stream in trace.streams]

    assert streams(None) == streams(CommSanitizer(checksum=True))


@pytest.mark.parametrize("kind, make, heard", [
    ("sanitizer", CommSanitizer, lambda san: san.rounds_checked),
    ("tracer", Tracer, lambda tracer: len(tracer.spans(kind="clock"))),
    ("capture", CaptureRecorder, lambda rec: rec.trace().event_count()),
], ids=["sanitizer", "tracer", "capture"])
def test_an_observer_keeps_its_slot_until_another_takes_it(kind, make, heard):
    """Installing a second observer of a kind detaches the first, and the
    first one's later ``uninstall()`` leaves the second wired: it used to
    clear the runtime's slot and hooks, the tracer's clock observers too,
    so the second silently heard nothing."""
    rt = SpmdRuntime(system_ii(), WORLD)
    first, second = make(), make()
    first.install(rt)
    second.install(rt)
    first.uninstall()
    assert getattr(rt, kind) is second
    rt.run(lambda ctx: Communicator.world(ctx).all_reduce(np.ones(4)))
    assert heard(second) > 0


def test_failed_run_releases_rounds_and_mailboxes():
    """Rank 2 fails before an all-reduce ranks 0 and 1 enter, and rank 3
    sends to it: after ``RemoteRankError`` no round or message of the failed
    run is left, and its counters still read."""

    def prog(ctx):
        comm = Communicator.world(ctx)
        if ctx.rank == 3:
            comm.send(np.ones(4), 2)
            return None
        if ctx.rank == 2:
            raise ValueError("rank 2 fails")
        return comm.all_reduce(np.ones(4))

    rt = SpmdRuntime(system_ii(), WORLD)
    with pytest.raises(RemoteRankError) as err:
        rt.run(prog)
    assert isinstance(err.value.__cause__, ValueError)
    assert rt.world_group._rounds == {}
    assert rt.mailboxes._boxes == {}
    assert rt.world_group.counters.by_op_calls == {"p2p": 1}
    # and the runtime runs again
    assert rt.run(lambda ctx: ctx.rank) == list(range(WORLD))
