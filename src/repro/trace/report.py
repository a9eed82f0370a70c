"""Text summaries of a trace.

:class:`TraceReport` condenses a traced run into the tables the paper's
figures are made of: per-rank time breakdown by category (Fig 9-style
compute/comm split), the top-k collectives by wire bytes and by time
(Table 1 / Fig 5 territory), the pipeline-bubble fraction (the
``(p-1)/(m+p-1)`` term behind Fig 13b), and — for overlap-enabled runs —
the per-rank split of comm-stream time into *exposed* (a ``wait()``
actually stalled for it) and *overlapped* (hidden under compute) seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.trace.tracer import CLOCK_CATEGORIES, KIND_CLOCK, Tracer


def _terms(tracer: Tracer, cat: str,
           arg: Optional[str] = None) -> Dict[int, List[float]]:
    """Per rank, the durations of its ``cat`` spans (or their ``arg``
    value where a span carries one)."""
    out: Dict[int, List[float]] = {}
    for s in tracer.spans(cat=cat):
        out.setdefault(s.rank, []).append(
            s.duration if arg is None else float(s.args.get(arg, s.duration)))
    return out


def _fsums(terms: Dict) -> Dict:
    return {key: math.fsum(ts) for key, ts in terms.items()}


@dataclass
class CollectiveStat:
    """Aggregate over all rounds of one collective op."""

    op: str
    calls: int = 0          # rounds (counted once per round, not per rank)
    wire_bytes: int = 0     # total bytes on the wire across rounds
    rank_seconds: float = 0.0  # span durations summed over every member rank
    retries: int = 0


@dataclass
class TraceReport:
    """Computed summary of one traced run (build via :meth:`from_tracer`)."""

    per_rank: Dict[int, Dict[str, float]] = field(default_factory=dict)
    per_rank_total: Dict[int, float] = field(default_factory=dict)
    collectives: Dict[str, CollectiveStat] = field(default_factory=dict)
    bubble_seconds: Dict[int, float] = field(default_factory=dict)
    # comm-stream accounting (empty unless the run used nonblocking comm):
    # stream occupancy, the exposed tail waits stalled for, and the hidden
    # remainder (stream - exposed)
    stream_seconds: Dict[int, float] = field(default_factory=dict)
    exposed_comm: Dict[int, float] = field(default_factory=dict)
    overlapped_comm: Dict[int, float] = field(default_factory=dict)

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "TraceReport":
        """Every float table is a ``math.fsum`` over its per-key terms: a
        correctly rounded sum has no order, so the report is the same
        whatever order rank threads appended their spans in."""
        rep = cls()
        per_rank: Dict[int, Dict[str, List[float]]] = {}
        for s in tracer.spans(kind=KIND_CLOCK):
            per_rank.setdefault(s.rank, {}).setdefault(s.cat, []).append(
                s.duration)
            rep.per_rank_total[s.rank] = max(
                rep.per_rank_total.get(s.rank, 0.0), s.t1
            )
        rep.per_rank = {rank: _fsums(cats) for rank, cats in per_rank.items()}
        rank_seconds: Dict[str, List[float]] = {}
        for s in tracer.spans(cat="collective"):
            stat = rep.collectives.setdefault(s.name, CollectiveStat(s.name))
            rank_seconds.setdefault(s.name, []).append(s.duration)
            if s.args.get("primary"):
                stat.calls += 1
                stat.wire_bytes += int(s.args.get("wire_bytes", 0))
                stat.retries += int(s.args.get("retries", 0))
        for op, seconds in _fsums(rank_seconds).items():
            rep.collectives[op].rank_seconds = seconds
        rep.bubble_seconds = _fsums(_terms(tracer, "bubble"))
        rep.stream_seconds = _fsums(_terms(tracer, "comm_stream"))
        rep.exposed_comm = _fsums(_terms(tracer, "overlap", "exposed"))
        for rank, stream in rep.stream_seconds.items():
            rep.overlapped_comm[rank] = max(
                0.0, stream - rep.exposed_comm.get(rank, 0.0)
            )
        return rep

    # -- derived metrics ---------------------------------------------------

    def bubble_fraction(self) -> float:
        """Fraction of total rank-time spent stalled on pipeline receives
        (0.0 when the run had no pipeline or a perfectly balanced one)."""
        total = sum(self.per_rank_total.values())
        if not total:
            return 0.0
        return sum(self.bubble_seconds.values()) / total

    def hidden_comm_fraction(self, rank: int) -> float:
        """Fraction of this rank's comm-stream time hidden under compute
        (1.0 = fully overlapped; 0.0 when the rank issued no stream comm)."""
        stream = self.stream_seconds.get(rank, 0.0)
        if not stream:
            return 0.0
        return self.overlapped_comm.get(rank, 0.0) / stream

    def top_collectives(self, k: int = 5, by: str = "wire_bytes") -> List[CollectiveStat]:
        """The ``k`` heaviest collectives by ``wire_bytes`` or ``rank_seconds``."""
        if by not in ("wire_bytes", "rank_seconds"):
            raise ValueError(f"top_collectives: unknown sort key {by!r}")
        return sorted(
            self.collectives.values(), key=lambda s: getattr(s, by), reverse=True
        )[:k]

    # -- rendering ---------------------------------------------------------

    def format(self, topk: int = 5) -> str:
        """Aligned text tables: breakdown, top collectives, bubble fraction."""
        cols = list(CLOCK_CATEGORIES) + ["bubble", "total"]
        lines = ["per-rank time breakdown (simulated seconds)"]
        lines.append("rank  " + "  ".join(f"{c:>10s}" for c in cols))
        for rank in sorted(self.per_rank):
            cats = self.per_rank[rank]
            vals = [cats.get(c, 0.0) for c in CLOCK_CATEGORIES]
            vals.append(self.bubble_seconds.get(rank, 0.0))
            vals.append(self.per_rank_total.get(rank, 0.0))
            lines.append(
                f"{rank:4d}  " + "  ".join(f"{v:10.6f}" for v in vals)
            )
        if self.collectives:
            lines.append("")
            lines.append(f"top-{topk} collectives by wire bytes")
            lines.append(
                f"{'op':>15s}  {'rounds':>7s}  {'bytes':>14s}  "
                f"{'rank-seconds':>13s}  {'retries':>7s}"
            )
            for stat in self.top_collectives(topk):
                lines.append(
                    f"{stat.op:>15s}  {stat.calls:7d}  {stat.wire_bytes:14d}  "
                    f"{stat.rank_seconds:13.6f}  {stat.retries:7d}"
                )
        if self.stream_seconds:
            lines.append("")
            lines.append("comm-stream overlap (simulated seconds)")
            lines.append(
                f"rank  {'stream':>10s}  {'exposed':>10s}  "
                f"{'overlapped':>10s}  {'hidden':>7s}"
            )
            for rank in sorted(self.stream_seconds):
                lines.append(
                    f"{rank:4d}  {self.stream_seconds[rank]:10.6f}  "
                    f"{self.exposed_comm.get(rank, 0.0):10.6f}  "
                    f"{self.overlapped_comm.get(rank, 0.0):10.6f}  "
                    f"{self.hidden_comm_fraction(rank):6.1%}"
                )
        lines.append("")
        lines.append(f"pipeline bubble fraction: {self.bubble_fraction():.4f}")
        return "\n".join(lines)
