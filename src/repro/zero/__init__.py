"""Zero-redundancy data parallelism, chunked memory management and
heterogeneous offloading (§3.2 of the paper).

* :mod:`repro.zero.chunk` — PatrickStar-style chunks: parameters are packed
  into flat buffers that become the unit of gather, reduce-scatter,
  offload and Adam update at every ZeRO stage.  One packer,
  ``pack_chunks``, cuts every chunk to what it holds: ZeRO-1/2 call it once
  on their parameter list, ZeRO-3 once per checkpointed block.
* :mod:`repro.zero.policies` — tensor placement: ``StaticPolicy``
  (DeepSpeed-like, everything offloaded to CPU) vs ``AdaptivePolicy``
  (Colossal-AI: keep chunks on GPU while memory allows).
* :mod:`repro.zero.zero_optimizer` — ZeRO stages 1-2 on those chunks for
  ordinary data-parallel training; ``initialize()`` builds them from
  ``zero.stage``.
* :mod:`repro.zero.engine` — the block-wise ZeRO-3 + offload training
  engine used by the GPT-2 10B / OPT-13B experiments (Fig 14).
"""

from repro.zero.chunk import Chunk, pack_chunks
from repro.zero.policies import AdaptivePolicy, PlacementPolicy, StaticPolicy
from repro.zero.zero_optimizer import ZeroRedundancyOptimizer
from repro.zero.engine import ZeroOffloadEngine

__all__ = [
    "Chunk",
    "pack_chunks",
    "PlacementPolicy",
    "StaticPolicy",
    "AdaptivePolicy",
    "ZeroRedundancyOptimizer",
    "ZeroOffloadEngine",
]
