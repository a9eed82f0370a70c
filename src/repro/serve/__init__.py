"""Request-level inference serving on the simulated substrate.

``repro.serve`` turns the training simulator into a serving simulator:
a tensor-parallel decode replica (priced through the comm cost model on
real process groups), a paged KV-cache (:class:`BlockPool` over cluster
memory pools), a continuous-batching scheduler with preempt-and-requeue,
and seedable open/closed-loop traffic generators reporting p50/p99 TTFT,
per-token latency and goodput vs offered load::

    from repro.serve import ModelSpec, OpenLoopTraffic, serve_traffic

    report = serve_traffic(
        ModelSpec(n_layers=4, hidden=1024),
        OpenLoopTraffic(rate=2000.0, n_requests=64, seed=7),
        world_size=2,
    )
    print(report.format())

See DESIGN.md §4j for the architecture and ``tests/test_serve.py`` for
the ``serving`` property-test lane over the scheduler and allocator.
"""

from repro.serve.engine import (
    ModelSpec,
    ServeEngine,
    serve_traffic,
)
from repro.serve.kvcache import (
    BlockPool,
    CacheExhausted,
    KVCacheError,
    RequestTooLarge,
)
from repro.serve.request import Request, RequestRecord
from repro.serve.scheduler import BatchPlan, ContinuousBatchingScheduler
from repro.serve.traffic import (
    ClosedLoopTraffic,
    FailureEvent,
    OpenLoopTraffic,
    TrafficReport,
)

__all__ = [
    "BatchPlan",
    "BlockPool",
    "CacheExhausted",
    "ClosedLoopTraffic",
    "ContinuousBatchingScheduler",
    "FailureEvent",
    "KVCacheError",
    "ModelSpec",
    "OpenLoopTraffic",
    "Request",
    "RequestRecord",
    "RequestTooLarge",
    "ServeEngine",
    "TrafficReport",
    "serve_traffic",
]
