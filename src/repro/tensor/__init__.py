"""Device tensors.

A :class:`Tensor` couples a payload (a real :class:`numpy.ndarray`, or a
:class:`~repro.comm.payload.SpecArray` stand-in in spec mode) with a
byte-accurate :class:`Storage` registered on a simulated device's memory
pool.  Allocation, views, release and the high-water mark all behave the
same in both modes, which is what lets the paper's memory experiments run
at billion-parameter scale without materializing data.
"""

from repro.tensor.tensor import (
    Storage,
    Tensor,
    default_device,
    full,
    zeros,
)
from repro.tensor.sharding import local_shard_shape, shard_payload

# ``Tensor``'s operators (``+``, ``@``, ``.sum()``, ...) are bound by
# ``repro.autograd.ops``, which builds on this package: loading it here gives
# every importer of a ``Tensor`` its operators.  When the import starts from
# ``repro.autograd``, that package is mid-load and binds them itself.
import repro.autograd  # noqa: E402,F401

__all__ = [
    "Storage",
    "Tensor",
    "default_device",
    "zeros",
    "full",
    "local_shard_shape",
    "shard_payload",
]
