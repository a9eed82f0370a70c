"""Pipeline parallelism (§2.2 of the paper, Fig 3c).

Consecutive layers are partitioned into stages, one per pipeline rank;
activations and their gradients flow between stages over point-to-point
sends.  GPipe (all forwards, then all backwards) and 1F1B (PipeDream-flush)
are orders (``schedule.pipeline_order``) that one executor walks.  The
bubble emerges from the simulated clocks — a stage's recv cannot complete
before the sender produced the activation.
"""

from repro.parallel.pipeline.partition import partition_balanced, partition_uniform
from repro.parallel.pipeline.schedule import GPipeSchedule, OneFOneBSchedule, PipelineSchedule

__all__ = [
    "partition_balanced",
    "partition_uniform",
    "PipelineSchedule",
    "GPipeSchedule",
    "OneFOneBSchedule",
]
