"""fp16 model wrapping.

``cast_model_to`` converts parameter storage dtype in place (the memory
pools see the 2-byte accounting immediately); ``initialize`` calls it when
``fp16.enabled``.  Master fp32 weights are handled inside the optimizers
(see :class:`repro.optim.Adam`).
"""

from __future__ import annotations

import numpy as np

from repro.comm.payload import SpecArray, is_spec
from repro.nn.module import Module
from repro.tensor.tensor import Storage


def cast_model_to(module: Module, dtype="float16") -> Module:
    """Re-store every parameter in ``dtype`` (reallocates pool bytes)."""
    target = np.dtype(dtype)
    for p in module.parameters():
        if p.dtype == target:
            continue
        if is_spec(p.payload):
            new_payload = SpecArray(p.shape, target)
        else:
            new_payload = p.payload.astype(target)
        old = p.storage
        p.storage = Storage(p.device, int(new_payload.nbytes), p.tag)
        old.release()
        p.payload = new_payload
    return module

