"""Projection results: aggregate a replay into per-role and whole-world
numbers.

The captured ranks are *roles*: under a :class:`~repro.project.replay.ScalePlan`
each captured group (and each captured rank's compute timeline and memory
footprint) stands for as many identical copies in the projected world as
the product of the factors of the axes it does *not* lie along, while the
axes it lies along re-priced its traffic at the widened size.  Totals
therefore weight each group's counters by its multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analytic.memory_model import project_peak_memory
from repro.comm.counters import CommCounters

from repro.project.replay import ReplayResult


def _accumulate(total: Dict[str, int], by_op: Dict[str, int], mult: int,
                p2p: Optional[Tuple[int, int]] = None) -> int:
    """Add one group's per-op counters, weighted by its replica count, into
    ``total`` and return their weighted sum.  Captured p2p on a
    chain-deepened group additionally scales by the stage-boundary ratio
    ``p2p = (num, den)``, in integers."""
    added = 0
    for k, v in by_op.items():
        w = v * mult
        if p2p is not None and k == "p2p":
            w = (w * p2p[0]) // p2p[1]
        total[k] = total.get(k, 0) + w
        added += w
    return added


@dataclass
class RankProjection:
    """One captured role's projected timeline."""

    rank: int
    total_time: float
    breakdown: Dict[str, float]
    stream: Dict[str, float]
    peak_memory_bytes: int


@dataclass
class AxisProjection:
    """Traffic attributed to one named plan axis: the multiplicity- and
    chain-weighted counters of the captured groups the axis owns."""

    name: str
    factor: int
    captured_degree: int
    projected_degree: int
    num_groups: int
    #: replica count of each of this axis's groups in the projected world
    #: (the product of the other axes' factors)
    multiplicity: int
    chain: bool = False
    sharded_bytes: int = 0
    wire_bytes: int = 0
    wire_elements: int = 0
    comm_calls: int = 0
    by_op_bytes: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "factor": self.factor,
            "captured_degree": self.captured_degree,
            "projected_degree": self.projected_degree,
            "num_groups": self.num_groups,
            "multiplicity": self.multiplicity,
            "chain": self.chain,
            "sharded_bytes": self.sharded_bytes,
            "wire_bytes": self.wire_bytes,
            "wire_elements": self.wire_elements,
            "comm_calls": self.comm_calls,
            "by_op_bytes": dict(self.by_op_bytes),
        }


@dataclass
class ProjectionReport:
    """What a projection run reports (the BENCH/README surface)."""

    source_world: int
    target_world: int
    factor: int
    mode: str
    step_time: float
    per_rank: List[RankProjection]
    #: whole projected world, multiplicity-weighted
    wire_bytes_total: int = 0
    wire_elements_total: int = 0
    comm_calls_total: int = 0
    by_op_bytes: Dict[str, int] = field(default_factory=dict)
    by_op_elements: Dict[str, int] = field(default_factory=dict)
    by_op_calls: Dict[str, int] = field(default_factory=dict)
    by_algorithm_bytes: Dict[str, int] = field(default_factory=dict)
    exposed_comm_seconds: float = 0.0
    overlapped_comm_seconds: float = 0.0
    peak_memory_bytes: int = 0
    #: per captured group: multiplicity-1 counters for parity checks
    group_counters: Dict[int, CommCounters] = field(default_factory=dict)
    group_multiplicity: Dict[int, int] = field(default_factory=dict)
    #: per named plan axis (empty for recorded replays)
    axes: List[AxisProjection] = field(default_factory=list)

    @property
    def hidden_comm_fraction(self) -> float:
        """Fraction of stream-comm seconds hidden under compute."""
        total = self.exposed_comm_seconds + self.overlapped_comm_seconds
        if total <= 0.0:
            return 0.0
        return self.overlapped_comm_seconds / total

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source_world": self.source_world,
            "target_world": self.target_world,
            "factor": self.factor,
            "mode": self.mode,
            "step_time": self.step_time,
            "wire_bytes_total": self.wire_bytes_total,
            "wire_elements_total": self.wire_elements_total,
            "comm_calls_total": self.comm_calls_total,
            "by_op_bytes": dict(self.by_op_bytes),
            "by_op_elements": dict(self.by_op_elements),
            "by_algorithm_bytes": dict(self.by_algorithm_bytes),
            "exposed_comm_seconds": self.exposed_comm_seconds,
            "overlapped_comm_seconds": self.overlapped_comm_seconds,
            "hidden_comm_fraction": self.hidden_comm_fraction,
            "peak_memory_bytes": self.peak_memory_bytes,
            "axes": [a.to_dict() for a in self.axes],
            "per_rank": [
                {
                    "rank": r.rank,
                    "total_time": r.total_time,
                    "breakdown": dict(r.breakdown),
                    "stream": dict(r.stream),
                    "peak_memory_bytes": r.peak_memory_bytes,
                }
                for r in self.per_rank
            ],
        }

    def format(self) -> str:
        lines = [
            f"projection: {self.source_world} captured ranks -> "
            f"{self.target_world} projected ranks ({self.mode} pricing)",
            f"  step time           {self.step_time * 1e3:10.3f} ms",
            f"  peak memory / rank  {self.peak_memory_bytes / 2**30:10.3f} GiB",
            f"  comm volume         {self.wire_bytes_total / 2**30:10.3f} GiB "
            f"({self.comm_calls_total} calls)",
            f"  hidden comm         {self.hidden_comm_fraction * 100:9.1f} %",
        ]
        for op in sorted(self.by_op_bytes):
            lines.append(
                f"    {op:<18} {self.by_op_bytes[op] / 2**20:12.3f} MiB"
            )
        for ax in self.axes:
            lines.append(
                f"  axis {ax.name:<6} x{ax.factor:<5} "
                f"degree {ax.captured_degree} -> {ax.projected_degree}, "
                f"{ax.num_groups} group(s) x{ax.multiplicity} replicas, "
                f"{ax.wire_bytes / 2**20:10.3f} MiB"
            )
        return "\n".join(lines)


def build_report(result: ReplayResult, mode: str) -> ProjectionReport:
    trace = result.trace
    axes = list(result.axes.values())
    per_rank = []
    for r in range(trace.world_size):
        captured_peak = int(trace.peak_memory[r])
        shards = [
            (ax.sharded_bytes, ax.factor) for ax in axes
            if ax.sharded_bytes > 0 and ax.factor > 1 and r in ax.rank_set
        ]
        peak = (
            project_peak_memory(captured_peak, shards) if shards
            else captured_peak
        )
        per_rank.append(RankProjection(
            rank=r,
            total_time=max(result.clocks[r].time, result.streams[r].time),
            breakdown=result.clocks[r].breakdown(),
            stream=result.streams[r].breakdown(),
            peak_memory_bytes=peak,
        ))
    report = ProjectionReport(
        source_world=trace.world_size,
        target_world=result.target_world,
        factor=result.plan.total_factor(),
        mode=mode,
        step_time=result.step_time,
        per_rank=per_rank,
        peak_memory_bytes=(
            max(r.peak_memory_bytes for r in per_rank) if per_rank else 0
        ),
        group_counters=dict(result.counters),
        group_multiplicity=dict(result.multiplicity),
    )
    for gid, counters in result.counters.items():
        mult = result.multiplicity.get(gid, 1)
        p2p = result.p2p_scale.get(gid)
        report.wire_bytes_total += _accumulate(
            report.by_op_bytes, counters.by_op_bytes, mult, p2p)
        report.wire_elements_total += _accumulate(
            report.by_op_elements, counters.by_op_elements, mult, p2p)
        report.comm_calls_total += _accumulate(
            report.by_op_calls, counters.by_op_calls, mult, p2p)
        _accumulate(report.by_algorithm_bytes, counters.by_algorithm_bytes,
                    mult)
        report.exposed_comm_seconds += counters.exposed_seconds_total * mult
        report.overlapped_comm_seconds += (
            counters.overlapped_seconds_total * mult
        )
    # per-axis attribution: each axis owns the groups it resolved, and
    # every axis owns the whole-world group
    world = tuple(range(trace.world_size))
    for ax in axes:
        other = 1
        for other_ax in axes:
            if other_ax.name != ax.name:
                other *= other_ax.factor
        proj = AxisProjection(
            name=ax.name,
            factor=ax.factor,
            captured_degree=ax.captured_degree,
            projected_degree=ax.captured_degree * ax.factor,
            num_groups=len(ax.groups),
            multiplicity=other,
            chain=ax.chain,
            sharded_bytes=ax.sharded_bytes,
        )
        for gid, counters in result.counters.items():
            key = tuple(trace.groups[gid])
            if key not in ax.group_set and key != world:
                continue
            mult = result.multiplicity.get(gid, 1)
            p2p = result.p2p_scale.get(gid)
            proj.wire_bytes += _accumulate(
                proj.by_op_bytes, counters.by_op_bytes, mult, p2p)
            proj.wire_elements += _accumulate(
                {}, counters.by_op_elements, mult, p2p)
            proj.comm_calls += _accumulate(
                {}, counters.by_op_calls, mult, p2p)
        report.axes.append(proj)
    return report
