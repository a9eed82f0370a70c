"""repro — a reproduction of "Colossal-AI: A Unified Deep Learning System
For Large-Scale Parallel Training" (ICPP 2023) on a simulated multi-GPU
substrate.

Quickstart (Listing 1 of the paper)::

    import repro
    from repro.cluster import system_i
    from repro.models import ViTConfig, build_vit
    from repro.optim import AdamW
    from repro.tensor import Tensor

    config = dict(parallel=dict(tensor=dict(size=4, mode="2d")))

    def train(ctx, pc):
        bundle = build_vit(ViTConfig(), pc)
        engine = repro.initialize(
            bundle.model, AdamW(bundle.model.parameters()), pc=pc)
        ...

    repro.launch(config, system_i(), train, world_size=4)
"""

from repro.autopar.compiler import compile_strategy
from repro.config import Config
from repro.context import ParallelContext, ParallelMode, global_context
from repro.engine import Engine, initialize, launch
from repro.faults import FaultPlan
from repro.runtime import SpmdRuntime
from repro.sanitize import CommSanitizer
from repro.serve import ModelSpec, TrafficReport, serve_traffic
from repro.trace import Tracer, TraceReport

__version__ = "1.0.0"

__all__ = [
    "compile_strategy",
    "Config",
    "ParallelContext",
    "ParallelMode",
    "global_context",
    "CommSanitizer",
    "Engine",
    "FaultPlan",
    "initialize",
    "launch",
    "ModelSpec",
    "SpmdRuntime",
    "Tracer",
    "TraceReport",
    "TrafficReport",
    "serve_traffic",
    "__version__",
]
