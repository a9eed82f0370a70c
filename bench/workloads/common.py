"""Readers for the program's public counters, shared by the workloads.

Each returns per-layer metric names as BENCHMARK.json lists them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence

from repro.trace import TraceReport, chrome_trace
from repro.utils.profile import time_breakdown


def comm_metrics(runtime: Any,
                 groups: Iterable[Sequence[int]]) -> Dict[str, float]:
    """``CommCounters`` summed over the process groups the program used
    (``groups``: rank tuples; ``runtime.group`` is idempotent)."""
    calls = wire = retries = 0
    exposed = overlapped = 0.0
    by_algo: Dict[str, int] = {}
    for ranks in sorted(set(tuple(g) for g in groups)):
        c = runtime.group(ranks).counters
        calls += c.calls_total
        wire += c.bytes_total
        retries += c.retries_total
        exposed += c.exposed_seconds_total
        overlapped += c.overlapped_seconds_total
        for algo, n in c.by_algorithm_calls.items():
            by_algo[algo] = by_algo.get(algo, 0) + n
    return {
        "comm.collective_calls": calls,
        "comm.wire_bytes": wire,
        "comm.exposed_s": exposed,
        "comm.overlapped_s": overlapped,
        "comm.retries": retries,
        "comm.algo_ring_calls": by_algo.get("ring", 0),
        "comm.algo_tree_calls": by_algo.get("tree", 0),
        "comm.algo_hier_calls": by_algo.get("hierarchical", 0),
    }


def slowest_rank_breakdown(runtime: Any) -> Dict[str, float]:
    """Simulated seconds by category on the rank that finished last."""
    return max(time_breakdown(runtime), key=lambda r: r["total"])


def runtime_metrics(runtime: Any) -> Dict[str, float]:
    row = slowest_rank_breakdown(runtime)
    out = {
        "runtime.sim_compute_s": row["compute"],
        "runtime.sim_comm_s": row["comm"],
        "runtime.sim_wait_s": row["wait"],
    }
    pool = runtime.buffer_pool
    if pool is not None:
        out["runtime.pool_loans"] = pool.loans
        out["runtime.pool_reuse_ratio"] = (
            pool.reuses / pool.loans if pool.loans else 0.0)
    return out


def peak_device_bytes(cluster: Any, world: int) -> int:
    """Max over ranks of the device ``MemoryPool`` peak."""
    return max(cluster.device(r).memory.peak for r in range(world))


def pool_is_clean(runtime: Any) -> bool:
    """``BufferPool.check_leaks()`` raises on an unreturned loan."""
    if runtime.buffer_pool is None:
        return True
    try:
        runtime.buffer_pool.check_leaks()
    except RuntimeError:
        return False
    return True


def trace_metrics(tracer: Any) -> Dict[str, float]:
    return {
        "trace.spans": len(tracer.spans()),
        "parallel.bubble_fraction":
            TraceReport.from_tracer(tracer).bubble_fraction(),
    }


def program_events(tracer: Any) -> list:
    return chrome_trace(tracer)["traceEvents"]
