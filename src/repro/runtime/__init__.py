"""SPMD execution runtime.

Launches one Python thread per simulated rank (the program style follows
mpi4py: every rank runs the same function) — or, for a symmetric spec-mode
run, rank 0 alone for every rank (DESIGN §4ab) — owns the per-rank
simulated clocks, and provides deterministic failure propagation so that an
exception on one rank aborts collectives on all others instead of
deadlocking.
"""

from repro.runtime.clock import SimClock, StreamClock
from repro.runtime.errors import (
    CollectiveTimeout,
    RankFailure,
    RemoteRankError,
    SpmdAborted,
)
from repro.runtime.spmd import RankContext, SpmdRuntime, current_rank_context

__all__ = [
    "SimClock",
    "StreamClock",
    "CollectiveTimeout",
    "RankFailure",
    "RemoteRankError",
    "SpmdAborted",
    "RankContext",
    "SpmdRuntime",
    "current_rank_context",
]
