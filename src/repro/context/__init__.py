"""Parallel context manager (§4 of the paper).

``ParallelContext`` decomposes the world into data / pipeline / tensor (or
sequence) dimensions, builds the process groups each parallel mode needs
(rows/columns of the 2D grid, depth layers of the 2.5D cuboid, the three
axes of the 3D cube), and hands out mode-scoped communicators and seeded
RNGs.  Layers never build groups themselves — they ask the context, which
is what lets the same model code run under any parallel configuration.
"""

from repro.context.parallel_context import (
    ParallelContext,
    ParallelMode,
    global_context,
    rank_groups,
)

__all__ = ["ParallelContext", "ParallelMode", "global_context", "rank_groups"]
