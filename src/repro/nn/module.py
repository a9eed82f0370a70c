"""Module / Parameter base classes.

A light re-implementation of the familiar container API: a module's
parameters and submodules are its attributes, ``parameters()`` walks the
tree, ``state_dict()`` round-trips numpy arrays.
"""

from __future__ import annotations

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
    """Base class of layers and models.  Parameters are attributes: the
    ``Parameter`` / ``Module`` values of the instance ``__dict__`` are what
    ``named_parameters()`` and ``_modules`` read, and ``m(x)`` is ``forward``."""

    training = True

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # bind __call__ to the class's own forward, unless a class above it
        # (not Module) wrote a __call__ of its own
        super().__init_subclass__(**kwargs)
        for klass in cls.__mro__[:cls.__mro__.index(Module)]:
            own = klass.__dict__.get("__call__")
            if own is not None and own is not klass.forward:
                return
        cls.__call__ = cls.forward

    def register_parameter(self, name: str, param: Optional[Parameter]) -> None:
        setattr(self, name, param)

    # -- traversal ------------------------------------------------------------

    @property
    def _modules(self) -> Dict[str, "Module"]:
        return {k: v for k, v in self.__dict__.items() if isinstance(v, Module)}

    def named_parameters(self, prefix: str = "") -> List[Tuple[str, Parameter]]:
        # one frame for the whole tree: a module's own parameters, then its
        # children's, depth first; a tensor met again is not yielded again
        found: Dict[int, Tuple[str, Parameter]] = {}
        stack = [(prefix, self)]
        while stack:
            pre, m = stack.pop()
            children = []
            for name, v in m.__dict__.items():
                if isinstance(v, Parameter):
                    found.setdefault(id(v), (pre + name, v))
                elif isinstance(v, Module):
                    children.append((f"{pre}{name}.", v))
            stack += reversed(children)
        return list(found.values())

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    # -- state ----------------------------------------------------------------

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
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

    __call__ = forward

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
        setattr(self, str(len(self._list)), module)
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
