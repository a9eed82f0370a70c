"""A collective storm with no autograd above it: the same program run
bare (``collectives_spec``) and under ``Tracer`` + sanitizer
(``collectives_observed``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.cluster import system_ii
from repro.comm import Communicator, SpecArray
from repro.runtime import SpmdRuntime
from repro.sanitize import CommSanitizer
from repro.trace import Tracer

from workloads import IterResult, Workload
from workloads import common

WORLD = 8
ROUNDS = 150
#: fp32 element counts: 16 KiB, 256 KiB, 2 MiB, 16 MiB
PAYLOAD_ELEMS = (4096, 65536, 524288, 4194304)
ROW = 4  # rows are consecutive ranks, columns stride by ROW


def _storm(ctx: Any) -> float:
    """Seven kinds of exchange per round, payload size cycling per round."""
    world = Communicator.world(ctx)
    r = ctx.rank
    row = world.subgroup(range(r - r % ROW, r - r % ROW + ROW))
    col = world.subgroup(range(r % ROW, WORLD, ROW))
    t0 = ctx.clock.time
    for i in range(ROUNDS):
        n = PAYLOAD_ELEMS[i % len(PAYLOAD_ELEMS)]
        x = SpecArray((n,), "float32")
        world.all_reduce(x)
        row.all_gather(x)
        col.reduce_scatter(x)
        row.broadcast(x if row.rank == 0 else None)
        handle = world.iallreduce(x)
        world.all_to_all(
            [SpecArray((n // WORLD,), "float32") for _ in range(WORLD)])
        world.sendrecv(x, (r + 1) % WORLD, (r - 1) % WORLD, tag=i)
        handle.wait()
    return ctx.clock.time - t0


def _groups() -> List[range]:
    rows = [range(s, s + ROW) for s in range(0, WORLD, ROW)]
    cols = [range(c, WORLD, ROW) for c in range(ROW)]
    return [range(WORLD)] + rows + cols


def _run_storm(seed: int, tracer: Optional[Tracer] = None,
               sanitizer: Optional[CommSanitizer] = None):
    rt = SpmdRuntime(
        system_ii(), WORLD, comm_algorithm="auto", comm_overlap=True,
        tracer=tracer, sanitize=sanitizer)
    steps = rt.run(_storm, materialize=False, seed=seed)
    return rt, max(steps)


def _sanitizer() -> CommSanitizer:
    return CommSanitizer(checksum=True, race=True)


class CollectivesSpec(Workload):
    """The storm with every observer off."""

    iterations = 30
    quick_iterations = 2

    def iterate(self, spans: Any, observe: bool) -> IterResult:
        tracer = Tracer() if observe else None
        with spans.span("SpmdRuntime.run", "runtime"):
            rt, step = _run_storm(self.seed, tracer=tracer)
        res = IterResult(
            sim={"sim_step_s": step},
            checks=[("buffer_pool_clean", common.pool_is_clean(rt))],
        )
        if observe:
            res.layers.update(common.comm_metrics(rt, _groups()))
            res.layers.update(common.runtime_metrics(rt))
            res.layers.update(common.trace_metrics(tracer))
            res.program_trace = common.program_events(tracer)
        return res


class CollectivesObserved(Workload):
    """The identical storm with ``Tracer`` and sanitizer installed on
    every iteration; simulated time must not notice."""

    iterations = 12
    quick_iterations = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        _, self.bare_step = _run_storm(self.seed)

    def iterate(self, spans: Any, observe: bool) -> IterResult:
        tracer, san = Tracer(), _sanitizer()
        with spans.span("SpmdRuntime.run", "runtime"):
            rt, step = _run_storm(self.seed, tracer=tracer, sanitizer=san)
        res = IterResult(
            sim={"sim_step_s": step},
            checks=[
                ("buffer_pool_clean", common.pool_is_clean(rt)),
                ("observed_step_equals_bare", step == self.bare_step),
                ("sanitizer_found_nothing",
                 san.mismatches == 0 and san.desyncs == 0),
            ],
        )
        if observe:
            res.layers.update(common.comm_metrics(rt, _groups()))
            res.layers.update(common.runtime_metrics(rt))
            res.layers.update(common.trace_metrics(tracer))
            res.layers["sanitize.rounds_checked"] = san.rounds_checked
            res.program_trace = common.program_events(tracer)
        return res

    def extra_layer_metrics(self, measure_cu: Any) -> Dict[str, float]:
        """Tracer-only and sanitizer-only iterations against the bare
        one, interleaved so host drift hits all three alike."""
        bare, traced, sanitized = [], [], []
        for _ in range(3):
            bare.append(measure_cu(lambda: _run_storm(self.seed)))
            traced.append(measure_cu(
                lambda: _run_storm(self.seed, tracer=Tracer())))
            sanitized.append(measure_cu(
                lambda: _run_storm(self.seed, sanitizer=_sanitizer())))
        base = sorted(bare)[1]
        return {
            "trace.overhead_ratio": sorted(traced)[1] / base,
            "sanitize.overhead_ratio": sorted(sanitized)[1] / base,
        }
