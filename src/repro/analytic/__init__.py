"""Closed-form analytical models, used to cross-check measurements.

* :mod:`repro.analytic.commvolume` — Table 1 communication-volume formulas
  (``tp_comm_volume``, the one statement of them).
* :mod:`repro.analytic.memory_model` — model-data / non-model-data byte
  estimates (§1 terminology).
* :mod:`repro.analytic.perf_model` — the exposed comm time of overlapped
  data-parallel training.
"""

from repro.analytic.commvolume import (
    comm_volume_1d,
    comm_volume_2d,
    comm_volume_25d,
    comm_volume_3d,
    comm_volume_table,
    tp_comm_volume,
)
from repro.analytic.memory_model import (
    adam_model_data_bytes,
    model_data_bytes_per_rank,
    transformer_activation_bytes,
    transformer_param_count,
    zero_partitioned_bytes,
)
from repro.analytic.perf_model import overlap_exposed_seconds

__all__ = [
    "comm_volume_1d",
    "comm_volume_2d",
    "comm_volume_25d",
    "comm_volume_3d",
    "comm_volume_table",
    "tp_comm_volume",
    "transformer_param_count",
    "adam_model_data_bytes",
    "transformer_activation_bytes",
    "model_data_bytes_per_rank",
    "overlap_exposed_seconds",
    "zero_partitioned_bytes",
]
