"""Weight initializers.

All initializers are driven by an explicit :class:`numpy.random.Generator`
so tensor-parallel layers can draw the *same* global matrix on every rank
(seeded per parallel mode by :mod:`repro.context.seed`) and then keep only
their shard — the mechanism that makes multi-dimensional TP arithmetically
identical to serial execution (verified by the Fig 7 convergence bench).

Inside a materialized SPMD run the ranks that hold one layer draw the same
matrix from generators in the same state, so :func:`param_payload` draws it
once: the runtime's ``draws`` table keeps each draw with the generator's
state after it until every rank is past it, and every other rank gets its
own copy and that state.
"""

from __future__ import annotations

import functools
import math
import pickle
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm.payload import SpecArray
from repro.runtime.spmd import rank_context

#: ``fn(shape, rng) -> array``.  An init is pure: what it returns and how
#: far it moves ``rng`` depend only on ``shape`` and ``rng``'s state, so two
#: calls from generators in equal states give equal bits (which lets a run
#: share one draw between ranks, :func:`param_payload`).  The factories below
#: return one function per argument, so every build of a layer keys the
#: draw table alike.
InitFn = Callable[[Tuple[int, ...], np.random.Generator], np.ndarray]


def zeros_init(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def ones_init(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    return np.ones(shape, dtype=np.float64)


#: inits that never read ``rng``: each rank fills its own, past the draw table
#: (they leave the generator where it was, so one rank repeats their key)
_CONSTANT = (zeros_init, ones_init)


@functools.cache
def normal(std: float = 0.02) -> InitFn:
    def fn(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(shape) * std

    return fn


def _fan(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """(fan_in, fan_out) with our [in, out] linear-weight convention."""
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = shape[0] * int(np.prod(shape[2:])) if len(shape) > 2 else shape[0]
    fan_out = shape[1] * int(np.prod(shape[2:])) if len(shape) > 2 else shape[1]
    return fan_in, fan_out


@functools.cache
def xavier_uniform(gain: float = 1.0) -> InitFn:
    def fn(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        fan_in, fan_out = _fan(shape)
        bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, shape)

    return fn


@functools.cache
def lecun_normal() -> InitFn:
    """The "Jax initialization" the paper uses for its ViT runs (§5.2)."""

    def fn(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        fan_in, _ = _fan(shape)
        std = math.sqrt(1.0 / max(fan_in, 1))
        return rng.standard_normal(shape) * std

    return fn


def param_payload(
    shape: Sequence[int],
    init_fn: InitFn,
    rng: Optional[np.random.Generator],
    dtype: Union[str, np.dtype] = "float32",
):
    """Materialize an init (or a SpecArray in spec mode).

    In a materialized run of several ranks, a draw of ``init_fn`` at
    ``shape`` and ``dtype`` from a generator in a state some rank has drawn
    from already is that rank's draw: the caller gets a copy of the array
    and its generator the state the draw left behind — what drawing again
    would give it.  Ranks that draw alike reach a draw at the same turn (the
    count of their earlier draws), so a draw is kept only until every rank
    has had that turn.  ``zeros_init`` / ``ones_init`` draw nothing and skip
    the table."""
    rc = rank_context()
    if rc is not None and not rc.materialize:
        return SpecArray(shape, dtype)
    shape = tuple(int(s) for s in shape)
    dtype = np.dtype(dtype)
    if rng is None:
        rng = np.random.default_rng()  # fresh: no rank shares its state
    elif rc is not None and rc.world_size > 1 and init_fn not in _CONSTANT:
        runtime, bitgen, turns = rc.runtime, rng.bit_generator, rc.runtime.draw_turns
        key = (init_fn, shape, dtype, pickle.dumps(bitgen.state))
        turn = turns[rc._rank]
        drawn = runtime.draws.get(key)
        if drawn is None:
            with runtime.draw_lock:
                drawn = runtime.draws.get(key)
                if drawn is None:
                    draws, floor = runtime.draws, min(turns)
                    for k, d in list(draws.items()):
                        if d[2] < floor:  # every rank is past it
                            del draws[k]
                    drawn = draws[key] = (
                        init_fn(shape, rng).astype(dtype), bitgen.state, turn)
        turns[rc._rank] = turn + 1  # taken: only now may the draw go
        bitgen.state = drawn[1]
        return drawn[0].copy()
    return init_fn(shape, rng).astype(dtype)
