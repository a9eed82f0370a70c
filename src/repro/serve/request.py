"""Inference requests and their lifecycle state machine.

A :class:`Request` is one user call: a prompt of ``prompt_tokens`` tokens
arriving at ``arrival`` simulated seconds, asking for ``max_new_tokens``
output tokens.  The serving engine moves it through::

    QUEUED -> PREFILL -> DECODE -> FINISHED
       ^         |          |
       +---- PREEMPTED <----+          (cache pressure: recompute-style)
       |
       +---- FAILED                    (typed: request can never fit)

Preemption is *recompute-style and total*: the victim's KV blocks are
freed and all generated progress is discarded, so a re-admitted request
replays prefill and decode from scratch.  Output tokens come from a
deterministic LCG chain seeded by ``(gen_seed, req_id, prompt_tokens)``
— any bookkeeping bug across a preempt/requeue (wrong resume position,
stale progress, lost reset) diverges the replayed chain and is caught by
the ``serving`` property lane's bitwise output comparison.

The chain is a pure function of its seed and the token count, so no
token is drawn while a request runs (its progress is an offset from its
scheduler's decode tick).  :func:`draw_outputs` draws all
``max_new_tokens`` of any number of finished requests at once, by a
jump-ahead over ``uint64``; the serving engine calls it when it writes a
batch of completion records, so until then a finished request's
``output`` is empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

QUEUED = "queued"
PREFILL = "prefill"
DECODE = "decode"
PREEMPTED = "preempted"
FINISHED = "finished"
FAILED = "failed"

REQUEST_STATES = (QUEUED, PREFILL, DECODE, PREEMPTED, FINISHED, FAILED)

#: 64-bit LCG (Knuth MMIX) driving the simulated token stream
_GEN_MUL = 6364136223846793005
_GEN_ADD = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Request:
    """One inference request plus its runtime progress."""

    __slots__ = (
        "req_id", "client", "prompt_tokens", "max_new_tokens", "arrival",
        "state", "prefill_done", "kv_slots", "output",
        "preemptions", "fail_reason",
        "t_admitted", "t_first_token", "t_prefill_done", "t_last_preempt",
        "t_finished", "_gen_state", "_seq", "_offset",
    )

    def __init__(self, req_id: int, prompt_tokens: int, max_new_tokens: int,
                 arrival: float, client: int = -1) -> None:
        if prompt_tokens < 1:
            raise ValueError(f"prompt_tokens must be >= 1, got {prompt_tokens}")
        if max_new_tokens < 1:
            raise ValueError(
                f"max_new_tokens must be >= 1, got {max_new_tokens}")
        self.req_id = int(req_id)
        self.client = int(client)
        self.prompt_tokens = int(prompt_tokens)
        self.max_new_tokens = int(max_new_tokens)
        self.arrival = float(arrival)
        self.state = QUEUED
        self.prefill_done = 0
        #: KV capacity already allocated to this request, in token slots —
        #: ``len(pool.table(req_id)) * block_size`` while active, else 0;
        #: the scheduler touches the pool only when a token outgrows it
        self.kv_slots = 0
        #: drawn whole after the request finishes (``draw_outputs``)
        self.output: List[int] = []
        self.preemptions = 0
        self.fail_reason: Optional[str] = None
        self.t_admitted: Optional[float] = None
        self.t_first_token: Optional[float] = None
        self.t_prefill_done: Optional[float] = None
        self.t_last_preempt: Optional[float] = None
        self.t_finished: Optional[float] = None
        self._gen_state = 0
        #: the scheduler's admission counter at this admission: ``active``
        #: and ``decoding`` are sorted by it
        self._seq = 0
        #: while DECODE, tokens generated = the scheduler's decode tick
        #: minus this offset
        self._offset = 0

    # -- token generation ------------------------------------------------

    def start_generation(self, gen_seed: int, vocab: int) -> None:
        """(Re)seed the deterministic output chain; called at admission."""
        del vocab  # tokens are drawn lazily; vocab applied per draw
        state = (gen_seed * 0x9E3779B97F4A7C15
                 + self.req_id * 0xBF58476D1CE4E5B9
                 + self.prompt_tokens) & _MASK64
        # one warm-up step decorrelates nearby (seed, id) pairs
        self._gen_state = (state * _GEN_MUL + _GEN_ADD) & _MASK64

    def next_token(self, vocab: int) -> int:
        """One draw of the chain: what ``draw_outputs`` jumps over."""
        self._gen_state = (self._gen_state * _GEN_MUL + _GEN_ADD) & _MASK64
        return int((self._gen_state >> 33) % vocab)

    # -- lifecycle -------------------------------------------------------

    def reset_progress(self, t: float) -> None:
        """Recompute-style preemption: discard every generated token."""
        self.state = PREEMPTED
        self.prefill_done = 0
        self.kv_slots = 0
        self.preemptions += 1
        self.t_last_preempt = t

    def record(self) -> "RequestRecord":
        # positional, in field order: the engine writes one per request
        return RequestRecord(
            self.req_id, self.client, self.prompt_tokens, self.max_new_tokens,
            self.arrival, self.t_first_token, self.t_finished,
            tuple(self.output), self.preemptions, self.fail_reason)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Request(id={self.req_id}, state={self.state}, "
                f"prompt={self.prompt_tokens}, new={self.max_new_tokens}, "
                f"prefilled={self.prefill_done})")


def draw_outputs(requests: Sequence[Request], vocab: int) -> None:
    """Set each request's ``output`` to the ``max_new_tokens`` tokens that
    as many ``next_token`` calls after ``start_generation`` return, for all
    of them at once.  Chain states are left where they are."""
    if not requests:
        return
    # the state k + 1 draws after s is mul[k] * s + add[k] (mod 2**64)
    n = max(map(attrgetter("max_new_tokens"), requests))
    mul, add, a, c = [], [], 1, 0
    for _ in range(n):
        a = (a * _GEN_MUL) & _MASK64
        c = (c * _GEN_MUL + _GEN_ADD) & _MASK64
        mul.append(a)
        add.append(c)
    seeds = np.fromiter(map(attrgetter("_gen_state"), requests), np.uint64,
                        len(requests))
    states = np.multiply.outer(seeds, np.array(mul, np.uint64))  # wraps
    states += np.array(add, np.uint64)
    states >>= 33
    states %= vocab
    for row, req in zip(states, requests):
        req.output = row[:req.max_new_tokens].tolist()


@dataclass(frozen=True, init=False)
class RequestRecord:
    """Immutable completion record — what the traffic report aggregates.

    Survives engine restarts (the driver owns the record dict), so a
    crash-requeued request keeps exactly one record: the pass that
    finished it.  ``completed``, ``ttft`` and ``token_latency`` are
    derived once, when the record is written, and read as plain fields;
    they take no constructor argument and stay out of ``to_dict()``,
    ``repr`` and ``==``.
    """

    req_id: int
    client: int
    prompt_tokens: int
    max_new_tokens: int
    arrival: float
    t_first_token: Optional[float]
    t_finished: Optional[float]
    output: Tuple[int, ...] = ()
    preemptions: int = 0
    fail_reason: Optional[str] = None
    completed: bool = field(init=False, repr=False, compare=False)
    #: seconds from arrival to the first output token
    ttft: Optional[float] = field(init=False, repr=False, compare=False)
    #: mean seconds per output token after the first (completed only)
    token_latency: Optional[float] = field(
        init=False, repr=False, compare=False)

    def __init__(self, req_id: int, client: int, prompt_tokens: int,
                 max_new_tokens: int, arrival: float,
                 t_first_token: Optional[float], t_finished: Optional[float],
                 output: Tuple[int, ...] = (), preemptions: int = 0,
                 fail_reason: Optional[str] = None) -> None:
        completed = fail_reason is None and t_finished is not None
        ttft = token_latency = None
        if t_first_token is not None:
            ttft = t_first_token - arrival
            if completed:
                n = len(output)
                token_latency = (
                    (t_finished - t_first_token) / (n - 1) if n > 1 else 0.0)
        # frozen: one ``__dict__`` update, where the generated __init__
        # pays an ``object.__setattr__`` call per field
        self.__dict__.update(
            req_id=req_id, client=client, prompt_tokens=prompt_tokens,
            max_new_tokens=max_new_tokens, arrival=arrival,
            t_first_token=t_first_token, t_finished=t_finished,
            output=output, preemptions=preemptions, fail_reason=fail_reason,
            completed=completed, ttft=ttft, token_latency=token_latency)

    def to_dict(self) -> dict:
        return {
            "req_id": self.req_id,
            "client": self.client,
            "prompt_tokens": self.prompt_tokens,
            "max_new_tokens": self.max_new_tokens,
            "arrival": self.arrival,
            "t_first_token": self.t_first_token,
            "t_finished": self.t_finished,
            "output": list(self.output),
            "preemptions": self.preemptions,
            "fail_reason": self.fail_reason,
        }
