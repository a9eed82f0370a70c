"""Optimizer base class."""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from repro.runtime.spmd import current_rank_context, in_spmd
from repro.tensor.tensor import Tensor


class Optimizer:
    """Holds parameters and per-parameter state.

    Subclasses implement ``_update(param, grad, state)`` (materialized) and
    declare ``FLOPS_PER_ELEMENT`` so spec-mode runs charge the same time.
    """

    FLOPS_PER_ELEMENT: float = 1.0

    def __init__(self, params: Iterable[Tensor], defaults: Dict[str, Any]) -> None:
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        self.defaults = defaults
        self.state: Dict[int, Dict[str, Any]] = {}
        self.step_count = 0

    # -- hooks -----------------------------------------------------------------

    def _init_state(self, p: Tensor) -> Dict[str, Any]:
        raise NotImplementedError

    def _update(self, p: Tensor, grad: np.ndarray, state: Dict[str, Any]) -> None:
        raise NotImplementedError

    # -- API --------------------------------------------------------------------

    def state_for(self, p: Tensor) -> Dict[str, Any]:
        key = id(p)
        if key not in self.state:
            self.state[key] = self._init_state(p)
        return self.state[key]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def _charge(self, n_elements: int) -> None:
        if not in_spmd():
            return
        ctx = current_rank_context()
        ctx.clock.advance(
            ctx.device.compute_seconds(self.FLOPS_PER_ELEMENT * n_elements, "float32"),
            "optimizer",
        )

    def step(self) -> None:
        self.step_count += 1
        for p in self.params:
            if p.grad is None:
                continue
            state = self.state_for(p)
            self._charge(p.size)
            if p.materialized and p.grad.materialized:
                self._update(p, p.grad.numpy(), state)

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot of all per-parameter state, ordered like ``self.params``
        (checkpointing; Tensor-valued state is copied out as numpy)."""
        entries: List[Optional[Dict[str, Any]]] = []
        for p in self.params:
            st = self.state.get(id(p))
            if st is None:
                entries.append(None)
                continue
            entry: Dict[str, Any] = {}
            for k, v in st.items():
                if isinstance(v, Tensor):
                    entry[k] = v.numpy().copy() if v.materialized else None
                elif isinstance(v, np.ndarray):
                    entry[k] = v.copy()
                else:
                    entry[k] = copy.deepcopy(v)
            entries.append(entry)
        return {"step_count": self.step_count, "param_state": entries}

    def load_state_dict(self, sd: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot into this optimizer's
        parameters (matched by position)."""
        entries = sd["param_state"]
        if len(entries) != len(self.params):
            raise ValueError(
                f"optimizer state for {len(entries)} params cannot load into "
                f"{len(self.params)} params"
            )
        self.step_count = sd["step_count"]
        for p, entry in zip(self.params, entries):
            if entry is None:
                self.state.pop(id(p), None)
                continue
            st = self.state_for(p)
            for k, v in entry.items():
                cur = st.get(k)
                if isinstance(cur, Tensor):
                    if cur.materialized and v is not None:
                        cur.payload[...] = np.asarray(v, dtype=cur.dtype)
                elif isinstance(v, np.ndarray):
                    st[k] = v.copy()
                else:
                    st[k] = copy.deepcopy(v)

    def clip_grad_norm(self, max_norm: float) -> float:
        """Global L2 clipping over all local grads; returns the norm."""
        grads = [p.grad for p in self.params if p.grad is not None]
        if not grads or any(not g.materialized for g in grads):
            return 0.0
        total = float(np.sqrt(sum(float(np.sum(g.numpy() ** 2)) for g in grads)))
        if max_norm > 0 and total > max_norm:
            scale = max_norm / (total + 1e-6)
            for g in grads:
                g.payload *= scale
        return total
