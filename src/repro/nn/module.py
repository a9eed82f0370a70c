"""Module / Parameter base classes.

A light re-implementation of the familiar container API: attribute
assignment registers parameters and submodules, ``parameters()`` walks the
tree, ``state_dict()`` round-trips numpy arrays.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd.checkpoint import checkpoint as _checkpoint
from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A Tensor registered as a trainable parameter (tag ``"param"``,
    ``requires_grad=True`` by default)."""

    def __init__(self, data, dtype=None, device=None, requires_grad: bool = True) -> None:
        super().__init__(
            data, dtype=dtype, device=device, requires_grad=requires_grad, tag="param"
        )


class Module:
    """Base class with parameter/submodule registration."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- registration -----------------------------------------------------

    def __setattr__(self, name: str, value: Any) -> None:
        params = self.__dict__.get("_parameters")
        modules = self.__dict__.get("_modules")
        if params is None:
            raise RuntimeError("call Module.__init__() before assigning attributes")
        if isinstance(value, Parameter):
            params[name] = value
            modules.pop(name, None)
        elif isinstance(value, Module):
            modules[name] = value
            params.pop(name, None)
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, param: Optional[Parameter]) -> None:
        if param is not None:
            setattr(self, name, param)
        else:
            self._parameters.pop(name, None)
            object.__setattr__(self, name, None)

    def add_module(self, name: str, module: "Module") -> None:
        setattr(self, name, module)

    # -- traversal ------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> List[Tuple[str, Parameter]]:
        # a list per module, not a generator chain: that would resume once
        # per parameter per level of nesting
        out = [(prefix + name, p) for name, p in self._parameters.items()]
        for mname, m in self._modules.items():
            out.extend(m.named_parameters(f"{prefix}{mname}."))
        return out

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    # -- state ----------------------------------------------------------------

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for m in self._modules.values():
            m.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def state_dict(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for name, p in self.named_parameters():
            out[name] = p.numpy().copy()
        return out

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, extra={sorted(extra)}")
        for name, p in own.items():
            arr = np.asarray(state[name], dtype=p.dtype)
            if arr.shape != p.shape:
                raise ValueError(
                    f"shape mismatch for {name}: param {p.shape} vs state {arr.shape}"
                )
            if p.materialized:
                p.payload[...] = arr

    # -- call ---------------------------------------------------------------------

    def forward(self, *args: Any, **kwargs: Any):
        raise NotImplementedError

    def __call__(self, *args: Any, **kwargs: Any):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"


class ModuleList(Module):
    """An indexable list of submodules."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._list: List[Module] = []
        for m in modules or []:
            self.append(m)

    def append(self, module: Module) -> "ModuleList":
        self.add_module(str(len(self._list)), module)
        self._list.append(module)
        return self

    def __getitem__(self, i: int) -> Module:
        return self._list[i]

    def __len__(self) -> int:
        return len(self._list)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._list)


class Sequential(ModuleList):
    """A :class:`ModuleList` whose forward chains its modules, each one
    through :func:`repro.autograd.checkpoint` when built with
    ``checkpoint=True``."""

    def __init__(self, modules: Optional[List[Module]] = None, checkpoint: bool = False) -> None:
        super().__init__(modules)
        self.checkpoint = checkpoint

    def forward(self, x):
        for m in self._list:
            x = _checkpoint(m, x) if self.checkpoint else m(x)
        return x
