"""Simulated-time profiling report.

Every :class:`SimClock` tracks how its time divides into categories
(``compute``, ``comm``, ``offload``, ``optimizer``, ``wait``);
:func:`time_breakdown` is the per-rank "where did the step time go" table.
"""

from __future__ import annotations

from typing import Dict, List

from repro.runtime.spmd import SpmdRuntime

CATEGORIES = ("compute", "comm", "offload", "optimizer", "wait")


def time_breakdown(runtime: SpmdRuntime) -> List[Dict[str, float]]:
    """Per-rank seconds by category (+ ``total``)."""
    rows = []
    for clock in runtime.clocks:
        b = clock.breakdown()
        row = {c: b.get(c, 0.0) for c in CATEGORIES}
        extra = sum(v for k, v in b.items() if k not in CATEGORIES)
        row["other"] = extra
        row["total"] = clock.time
        rows.append(row)
    return rows
