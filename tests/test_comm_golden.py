"""Communication behaviour frozen against ``tests/comm_golden.json``.

The serving and training goldens' sibling for the comm layer: a small
8-rank spec storm over **every** :class:`Communicator` entry point, under
each collective algorithm on a single-node and a two-node system, reduced to
every rank's final simulated clock (kept readable) and a sha256 per section
— clock breakdowns, comm-stream heads, the ``CommCounters`` of every group,
the ``Tracer`` span stream and the sanitizer's record streams + collective
digests — so a mismatch names what moved.  The same storm then runs under a
:class:`FaultPlan` (glitched collectives and dropped/corrupted sends with
their retries priced; a permanent blackout; a link degraded and restored
mid-run, which must re-price and re-select), and one captured hybrid step is
projected to 64 ranks in model mode.  A refactor of rendezvous, cost model
or sanitizer hooks is done when this file still passes.

It was generated at commit ``06341af`` (every round re-walking the
``Topology`` caches, the last-arriver block written out twice);
``projection/model_64``'s report hash was re-cut when GPipe began freeing
each microbatch's stage output after its backward (DESIGN §4x): the
captured peak memory fell, no clock moved.  The four ``storm/two_node``
entries' ``streams``, ``counters`` and ``spans`` hashes were re-cut when
``isend`` began riding the sender's p2p stream under ``comm_overlap=False``
too: the send now occupies the stream, its wait books exposed seconds and
traces a stream span, and no clock moved.  ``faults/degraded_restored``'s
``counters`` hash was re-cut when the ``auto`` bucket table was deleted:
its world group no longer reports the table's ``[hits, misses]``, and the
same counters without that key hash alike before and after; no clock
moved.  Every entry was re-cut when ``scatter``, ``gather``,
``all_gather_object`` and ``irecv`` left the communicator (no program
outside the tests called them): the storm dropped those calls and receives
its ``isend`` with a blocking ``recv`` where the ``irecv`` handle was
waited.  The new file was generated by this storm on the commit before
the deletion, and the code after it reproduces it byte for byte.  The
``barrier`` after the column's ``ireduce_scatter`` stands where its
``all_gather_object`` stood: the blocking call on the same group that keeps
a rank's sanitizer stream in program order.

Regenerate (only when simulated comm behaviour is *meant* to change):
``PYTHONPATH=src python tests/test_comm_golden.py``
"""

import json
from pathlib import Path

import pytest

from repro.cluster import system_ii, system_iii
from repro.comm import Communicator, SpecArray
from repro.config import Config
from repro.context import ParallelContext, ParallelMode
from repro.faults import FaultPlan
from repro.nn import Sequential
from repro.parallel.data import sync_gradients
from repro.parallel.pipeline import GPipeSchedule, partition_uniform
from repro.parallel.tensor1d import ParallelTransformerLayer1D
from repro.project import capture_run, derive_axis_groups, hybrid_plan, project
from repro.runtime import SpmdRuntime
from repro.runtime.errors import CollectiveTimeout, RemoteRankError
from repro.sanitize import CommSanitizer
from repro.trace import Tracer
from repro.utils.backoff import RetryPolicy
from repro.utils.profile import time_breakdown

from test_train_golden import _sha, _sig

GOLDEN = Path(__file__).with_name("comm_golden.json")

WORLD, ROW = 8, 4
#: fp32 element counts, 1 KiB - 4 MiB: both sides of the tree/ring and
#: ring/hierarchical crossovers on either system
SIZES = (256, 4096, 65536, 1048576)
ALGORITHMS = ("ring", "tree", "hierarchical", "auto")
SYSTEMS = {
    # comm_overlap on; isend rides the sender's p2p stream under either flag
    "system_ii": (system_ii, True),
    # two nodes of four, comm_overlap off
    "two_node": (lambda: system_iii(n_nodes=2), False),
}
GROUPS = (
    [range(WORLD)]
    + [range(s, s + ROW) for s in range(0, WORLD, ROW)]
    + [range(c, WORLD, ROW) for c in range(ROW)]
    + [(6, 4, 2, 0), (7, 5, 3, 1)]  # split(color=rank % 2, key=-rank)
)


def _storm(ctx, sizes=SIZES):
    """Every communicator entry point once per payload size.  A rank never
    moves to another group while a nonblocking round it issued may still be
    filling (a blocking call on the same group follows each issue), so the
    order of its sanitizer stream is a function of the program alone."""
    world = Communicator.world(ctx)
    r = ctx.rank
    nxt, prv = (r + 1) % WORLD, (r - 1) % WORLD
    row = world.subgroup(range(r - r % ROW, r - r % ROW + ROW))
    col = world.subgroup(range(r % ROW, WORLD, ROW))
    for i, n in enumerate(sizes):
        x = SpecArray((n,), "float32")
        world.all_reduce(x)
        row.all_gather(x)
        col.reduce_scatter(x)
        row.broadcast(x if row.rank == 0 else None)
        handle = world.iallreduce(x, op="max")
        world.all_to_all(
            [SpecArray((n // WORLD,), "float32") for _ in range(WORLD)])
        world.sendrecv(x, nxt, prv, tag=i)
        handle.wait()
        world.reduce(x, root=i % WORLD, op="min")
        world.ring_pass(x, shift=1 + i % 3)
        world.barrier()
        gathered = world.iall_gather(x.reshape(n // 2, 2), axis=1)
        world.barrier()
        scattered = col.ireduce_scatter(x)
        col.barrier()
        outgoing = world.isend(x.astype("float16"), nxt, tag=("nb", i))
        outgoing.wait()
        assert world.recv(prv, tag=("nb", i)).nbytes == 2 * n
        assert scattered.wait().shape == (n // 2,)
        assert gathered.wait().shape == (n // 2, 2 * WORLD)
    halves = world.split(color=r % 2, key=-r)
    assert halves.group.ranks == list(GROUPS[-2 + r % 2])
    halves.all_reduce(SpecArray((1024,), "float16"))
    return ctx.clock.time


def _counters(rt):
    out = {}
    for ranks in GROUPS:
        group = rt.group(ranks)
        c = group.counters
        out[",".join(map(str, ranks))] = {
            "bytes": c.bytes_total, "elements": c.elements_total,
            "calls": c.calls_total, "retries": c.retries_total,
            "retry_bytes": c.retry_bytes_total,
            "by_op_bytes": c.by_op_bytes, "by_op_elements": c.by_op_elements,
            "by_op_calls": c.by_op_calls, "by_op_retries": c.by_op_retries,
            "by_algorithm_bytes": c.by_algorithm_bytes,
            "by_algorithm_calls": c.by_algorithm_calls,
            "exposed_s": _sig(c.exposed_seconds_total),
            "overlapped_s": _sig(c.overlapped_seconds_total),
        }
    return out


def _sim_sections(rt):
    return {
        "time_breakdown": time_breakdown(rt),
        "streams": [
            {k: _sig(v) for k, v in s.breakdown().items()} | {"head": s.time}
            for s in rt.comm_streams],
        "counters": _counters(rt),
    }


def _observer_sections(tracer, san):
    """Spans as a sorted multiset (the shared list's append order is the
    host's thread interleaving); per-rank sanitizer streams in order."""
    spans = sorted(
        json.dumps([s.rank, s.cat, s.name, s.t0, s.t1, s.kind, s.args],
                   sort_keys=True)
        for s in tracer.spans())
    events = sorted(
        [e.kind, e.op, e.src, e.dst, e.injected, e.healed] for e in san.events)
    return {
        "spans": spans,
        "instants": sorted([i.rank, i.name, i.t] for i in tracer.instants()),
        "sanitizer_streams": san.golden(),
        "collective_digests": [
            san.collective_digests(r) for r in range(WORLD)],
        "sanitizer_events": events,
        "rounds_checked": san.rounds_checked,
    }


def _digest(rt, sections):
    return {
        "clocks": [c.time for c in rt.clocks],
        "sha256": {name: _sha(body) for name, body in sections.items()},
    }


def _runtime(system, algorithm, observed, **kwargs):
    make_cluster, overlap = SYSTEMS[system]
    tracer, san = ((Tracer(), CommSanitizer(checksum=True, race=True))
                   if observed else (None, None))
    rt = SpmdRuntime(make_cluster(), WORLD, comm_algorithm=algorithm,
                     comm_overlap=overlap, tracer=tracer, sanitize=san,
                     **kwargs)
    return rt, tracer, san


def storm(system, algorithm):
    """Bare and observed runs of one storm; the observers must not move a
    single simulated number, so the sim sections are stored once."""
    bare, _, _ = _runtime(system, algorithm, observed=False)
    bare.run(_storm, materialize=False, seed=1)
    rt, tracer, san = _runtime(system, algorithm, observed=True)
    rt.run(_storm, materialize=False, seed=1)
    sim = _sim_sections(rt)
    assert [c.time for c in bare.clocks] == [c.time for c in rt.clocks]
    assert _sim_sections(bare) == sim
    assert san.mismatches == 0 and san.desyncs == 0
    return _digest(rt, sim | _observer_sections(tracer, san))


def storm_glitched():
    """Retries priced: glitched rounds on three groups (one of them hit on
    every second call by the seeded coin), a nonblocking round among them,
    and dropped + corrupted sends on two ring links."""
    plan = (
        FaultPlan(seed=5)
        .glitch(op="all_reduce", ranks=range(WORLD), attempts=2,
                max_glitches=3)
        .glitch(op="all_gather", ranks=range(ROW), attempts=1, p=0.5,
                max_glitches=None)
        .glitch(op="reduce_scatter", ranks=(1, 5), attempts=3,
                max_glitches=2)
        .drop(2, 3, count=3)
        .corrupt(6, 7, count=2)
    )
    rt, tracer, san = _runtime("system_ii", "auto", observed=True,
                               fault_plan=plan, retry=RetryPolicy())
    rt.run(_storm, materialize=False, seed=1)
    assert rt.world_group.counters.by_op_retries == {
        "all_reduce": 6, "p2p": 5}
    return _digest(rt, _sim_sections(rt) | _observer_sections(tracer, san)
                   | {"injector": rt.fault_injector.stats})


def storm_blackout():
    """A world-group ``reduce`` that never completes: every rank pays the
    whole retry budget and raises the same typed timeout."""
    plan = FaultPlan(seed=5).blackout(op="reduce", ranks=range(WORLD))
    rt, _, _ = _runtime("system_ii", "auto", observed=False, fault_plan=plan,
                        retry=RetryPolicy(max_retries=2))
    with pytest.raises(RemoteRankError) as exc:
        rt.run(_storm, materialize=False, seed=1)
    err = exc.value.__cause__
    assert isinstance(err, CollectiveTimeout)
    return _digest(rt, _sim_sections(rt) | {"error": str(err)})


def _degrading_storm(ctx):
    """Storm, NVLink pair (0, 1) degraded to a twentieth, storm, links
    restored, storm: rank 0 edits the topology while every other rank is
    parked in the barrier it arrives at last."""
    world = Communicator.world(ctx)
    topo = ctx.cluster.topology
    times = [_storm(ctx, SIZES[1:3])]
    for edit in (lambda: topo.scale_link("gpu0", "gpu1", 0.05),
                 topo.restore_links):
        world.barrier()
        if ctx.rank == 0:
            edit()
        world.barrier()
        times.append(_storm(ctx, SIZES[1:3]) - sum(times))
    return times


def storm_degraded():
    rt, _, _ = _runtime("system_ii", "auto", observed=False)
    times = rt.run(_degrading_storm, materialize=False, seed=1)
    healthy, degraded, restored = max(times)
    assert degraded > healthy, "the degraded link did not re-price"
    return _digest(rt, _sim_sections(rt) | {"phases": times})


def _hybrid_step(ctx):
    """DP2 x TP2(1D) x PP2 GPipe over 4 microbatches, then the DP sync."""
    pc = ParallelContext(ctx, Config.from_dict(dict(
        parallel=dict(tensor=dict(size=2, mode="1d"), pipeline=2),
        num_microbatches=4, seed=5)))
    start, end = partition_uniform(4, 2)[pc.pp_rank]
    stage = Sequential([
        ParallelTransformerLayer1D(
            128, 4, pc.comm(ParallelMode.TENSOR), causal=True,
            dtype="float16")
        for _ in range(end - start)])
    GPipeSchedule(pc, 4).run(
        stage,
        SpecArray((8, 32, 128), "float16")
        if pc.is_first_pipeline_stage() else None,
        None,
        (lambda out, y: out.sum()) if pc.is_last_pipeline_stage() else None)
    sync_gradients(stage.parameters(), pc.comm(ParallelMode.DATA))


def projection_64():
    """Item-6 leftover: ``ProjectedCostModel`` inherits every cost formula
    of the memoised ``CostModel``, so one model-mode projection is pinned
    — the hybrid step captured on two nodes, widened to DP16 = 64 ranks."""
    _, trace = capture_run(system_iii(n_nodes=2), _hybrid_step,
                           world_size=WORLD, comm_algorithm="auto", seed=5)
    trace.axes = derive_axis_groups(WORLD, tensor=2, pipeline=2)
    report = project(trace, plan=hybrid_plan(
        {"dp": 8}, world=WORLD, tensor=2, pipeline=2))
    assert (report.target_world, report.mode) == (64, "model")
    return {
        "clocks": [report.step_time],
        "sha256": {"report": _sha(report.to_dict())},
    }


CASES = {
    f"storm/{system}/{algorithm}":
        (lambda s=system, a=algorithm: storm(s, a))
    for system in SYSTEMS for algorithm in ALGORITHMS
}
CASES.update({
    "faults/glitched": storm_glitched,
    "faults/blackout": storm_blackout,
    "faults/degraded_restored": storm_degraded,
    "projection/model_64": projection_64,
})


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    assert CASES[name]() == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: CASES[name]() for name in sorted(CASES)}, indent=2) + "\n")
