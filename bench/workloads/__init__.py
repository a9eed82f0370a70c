"""The benchmark's workloads: model/program definitions and the checks on
their outputs, written against ``repro``'s public API only.

Every workload builds its inputs from the seed in ``__init__`` and does
one *iteration* — its unit of work — per :meth:`Workload.iterate` call.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: workload name -> (module under bench/workloads, class name); modules are
#: imported on demand so a worker pays only for the workload it runs
REGISTRY: Dict[str, Tuple[str, str]] = {
    "ddp_vit_spec": ("training", "DdpVitSpec"),
    "hybrid_gpt_spec": ("training", "HybridGptSpec"),
    "collectives_spec": ("collectives", "CollectivesSpec"),
    "collectives_observed": ("collectives", "CollectivesObserved"),
    "zero_mlp_real": ("zero", "ZeroMlpReal"),
    "plan_compile_project": ("planning", "PlanCompileProject"),
    "serve_open_sweep": ("serving", "ServeOpenSweep"),
    "serve_closed_tightkv": ("serving", "ServeClosedTightKv"),
}


@dataclass
class IterResult:
    """What one iteration hands back to the harness."""

    #: the workload's simulated end-to-end metrics; must be bit-identical
    #: on every iteration of a run
    sim: Dict[str, float]
    #: (check name, passed) for every output check this iteration made
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    #: per-layer metrics read from the program's public counters; only
    #: filled when the iteration ran with ``observe=True``
    layers: Dict[str, float] = field(default_factory=dict)
    #: Chrome events of the program's own ``Tracer`` (``observe=True``)
    program_trace: Optional[List[Dict[str, Any]]] = None


class Workload:
    """Base class; subclasses set the class attributes and ``iterate``."""

    #: iterations of a full run and of a ``--quick`` run (never fewer
    #: than 2, so the drift check always compares something)
    iterations = 8
    quick_iterations = 2

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        #: (check name, passed) for checks made once, while setting up
        self.setup_checks: List[Tuple[str, bool]] = []

    def iterate(self, spans: Any, observe: bool) -> IterResult:
        """One unit of work.  ``spans`` records bench-level spans around
        the calls into the program; with ``observe`` the program's own
        ``Tracer`` is installed and per-layer counters are collected."""
        raise NotImplementedError

    def host_seconds(self, spans: Any) -> Dict[str, float]:
        """Per-layer ``*_cu`` metrics as host seconds read off the traced
        iteration's bench spans; the harness converts to calibration
        units."""
        return {}

    def extra_layer_metrics(self, measure_cu: Any) -> Dict[str, float]:
        """Per-layer metrics that need runs of their own (traced run
        only).  ``measure_cu(fn)`` times ``fn`` in calibration units."""
        return {}


def load(name: str) -> type:
    module, cls = REGISTRY[name]
    return getattr(importlib.import_module(f"workloads.{module}"), cls)
