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

``import repro`` loads this module alone (DESIGN §4ac).  Each public name
below is imported from its home module on first access and then kept in
this module's globals, so ``repro.launch`` loads the engine's layers and
not the compiler, serving, projection, sanitizer or fault layers.  A
subpackage resolves the same way: ``repro.cluster.system_i()`` works after
a bare ``import repro``.
"""

import threading
from importlib import import_module

__version__ = "1.0.0"

#: public name -> the module that defines it
_EXPORTS = {
    "compile_strategy": "repro.autopar.compiler",
    "Config": "repro.config",
    "ParallelContext": "repro.context",
    "ParallelMode": "repro.context",
    "global_context": "repro.context",
    "CommSanitizer": "repro.sanitize",
    "Engine": "repro.engine",
    "FaultPlan": "repro.faults",
    "initialize": "repro.engine",
    "launch": "repro.engine",
    "ModelSpec": "repro.serve",
    "SpmdRuntime": "repro.runtime",
    "Tracer": "repro.trace",
    "TraceReport": "repro.trace",
    "TrafficReport": "repro.serve",
    "serve_traffic": "repro.serve",
}

__all__ = [*_EXPORTS, "__version__"]

#: first accesses import one at a time: rank threads that reach two names at
#: once would otherwise meet the package's import cycles half-built
_resolving = threading.RLock()


def __getattr__(name: str):
    """PEP 562: import a public name's home module, or a subpackage, on first access."""
    with _resolving:
        if name in _EXPORTS:
            value = getattr(import_module(_EXPORTS[name]), name)
        else:
            try:
                value = import_module(f"{__name__}.{name}")
            except ModuleNotFoundError as err:
                if err.name != f"{__name__}.{name}":
                    raise
                raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
