"""Continuous-batching scheduler: admission, interleaving, preemption.

One :meth:`ContinuousBatchingScheduler.step` builds the *batch plan* for
the next model iteration (vLLM-style continuous batching — the batch is
recomposed every step, requests join and leave mid-flight):

1. **Decode first.**  Every running sequence contributes one token slot,
   in admission order.  They always fit the token budget: a request joins
   the running set only when its last prefill chunk, planned from the
   budget the running ones left, completes.  Latency beats throughput: a
   queued prompt never starves a stream mid-generation.
2. **Prefill second.**  Admitted-but-unprefilled requests consume the
   leftover budget in chunks of ``prefill_chunk`` tokens.
3. **Admission last.**  Preempted requests re-enter first (FIFO over
   preemption time — they already waited once), then the arrival queue
   in ``(arrival, req_id)`` order, as long as budget remains.

KV pressure resolves by *preempting the youngest*: when a block
allocation fails, the most recently admitted active request is evicted
(blocks freed, progress discarded, requeued) and the allocation retried.
A request never evicts an older one, so the oldest active request always
makes progress — that is the liveness argument, together with the
admission-time :class:`~repro.serve.kvcache.RequestTooLarge` check that
keeps unservable requests out entirely.

A turn costs work per request only where that request's state changes.
The decode batch is a copy of ``decoding`` (the DECODE subset of
``active``), and a running request's progress is an offset from the
scheduler's decode tick, which :meth:`apply` advances once for all of
them.  Two tick-keyed indexes name the requests with an event: ``_grows``
the ones whose next token crosses ``kv_slots`` (one ``appended`` call
each, in admission order), ``_ends`` the ones decoding their last token.
A preemption takes the victim out of both.  No token is drawn here:
:meth:`apply` returns finished requests with an empty ``output``, and
:func:`~repro.serve.request.draw_outputs` draws any number of them at
once.  Plans, block ids and outputs are the ones a per-token walk over
``active`` produces.

The scheduler is single-threaded, clockless and RNG-free: every decision
is a pure function of (queue state, ``now``), which is what makes the
engine's per-seed bitwise determinism — and the hypothesis lane over
random admission/preemption schedules — possible.  :meth:`apply` applies
a plan's token transitions (also deterministically), so scheduler + pool
are fully testable without the SPMD substrate.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Tuple

from repro.serve.kvcache import BlockPool, CacheExhausted
from repro.serve.request import DECODE, FAILED, FINISHED, PREFILL, Request

_ADMISSION = attrgetter("_seq")


class BatchPlan:
    """What one engine iteration will run."""

    __slots__ = ("prefill", "decode", "admitted", "preempted", "failed",
                 "context_tokens", "new_tokens")

    def __init__(self) -> None:
        #: (request, prompt tokens processed this step)
        self.prefill: List[Tuple[Request, int]] = []
        #: requests generating exactly one token this step
        self.decode: List[Request] = []
        self.admitted: List[Request] = []
        self.preempted: List[Request] = []
        self.failed: List[Request] = []
        #: attention context (KV slots read) across the batch, for pricing
        self.context_tokens = 0
        #: token slots computed this step — the budgeted quantity
        self.new_tokens = 0

    def _drop(self, req: Request) -> None:
        """Remove a just-preempted request from this plan's work lists.

        Victims are the tail of ``active``.  The decode pass evicts before
        it reads its batch (all of ``decoding``, in ``active``'s order),
        so a victim is either in no list yet or — a decoding request
        evicted by an older prompt's prefill chunk — the last decode
        entry; a prefill entry is never evicted.  ``context_tokens`` keeps
        the victim's share (simulated step times are frozen,
        ``tests/serve_golden.json``).
        """
        if self.decode and self.decode[-1] is req:
            self.decode.pop()
            self.new_tokens -= 1


class _ArrivalKeys:
    """``(arrival, req_id)`` view of a request sequence, so ``bisect``
    needs no ``key=`` (Python 3.9)."""

    __slots__ = ("reqs",)

    def __init__(self, reqs: Deque[Request]) -> None:
        self.reqs = reqs

    def __len__(self) -> int:
        return len(self.reqs)

    def __getitem__(self, i: int) -> Tuple[float, int]:
        req = self.reqs[i]
        return (req.arrival, req.req_id)


class ContinuousBatchingScheduler:
    def __init__(self, pool: BlockPool, max_batch_tokens: int,
                 prefill_chunk: int = 64, gen_seed: int = 0,
                 vocab: int = 50257) -> None:
        if max_batch_tokens < 1:
            raise ValueError(
                f"max_batch_tokens must be >= 1, got {max_batch_tokens}")
        if prefill_chunk < 1:
            raise ValueError(
                f"prefill_chunk must be >= 1, got {prefill_chunk}")
        self.pool = pool
        self.max_batch_tokens = int(max_batch_tokens)
        self.prefill_chunk = int(prefill_chunk)
        self.gen_seed = int(gen_seed)
        self.vocab = int(vocab)
        #: not-yet-admitted, ordered (arrival, req_id)
        self.waiting: Deque[Request] = deque()
        #: preempted awaiting re-admission, FIFO over preemption time
        self.paused: Deque[Request] = deque()
        #: admitted (PREFILL or DECODE), in admission order — the age order
        #: preemption victims are drawn from (youngest last)
        self.active: List[Request] = []
        #: the PREFILL requests of ``active``, in its order: admission
        #: appends, ``apply`` and ``_preempt`` remove, so the prefill pass
        #: walks only these
        self.prefilling: List[Request] = []
        #: the DECODE requests of ``active``, in its order (sorted by
        #: ``_seq``): ``apply`` inserts and removes, ``_preempt`` pops
        self.decoding: List[Request] = []
        #: one per ``apply``: a DECODE request has generated ``_tick -
        #: req._offset`` tokens
        self._tick = 0
        #: ``prompt_tokens - _offset`` summed over ``decoding``, so that the
        #: decode pass's context is ``len(decoding) * _tick`` plus this
        self._context_base = 0
        #: tick -> DECODE requests whose token at that tick's step needs a
        #: new KV block (``prompt + generated == kv_slots``, or more)
        self._grows: Dict[int, List[Request]] = {}
        #: tick -> DECODE requests whose token at that tick is their last
        self._ends: Dict[int, List[Request]] = {}
        self._admissions = 0
        self._now = 0.0

    # -- queue management ------------------------------------------------

    def submit(self, req: Request) -> None:
        waiting = self.waiting
        key = (req.arrival, req.req_id)
        if not waiting or (waiting[-1].arrival, waiting[-1].req_id) <= key:
            waiting.append(req)  # arrivals are almost always in order
        else:
            waiting.insert(bisect_right(_ArrivalKeys(waiting), key), req)

    def next_arrival(self) -> Optional[float]:
        """Earliest time new work becomes admissible (None = drained)."""
        if self.paused or self.active:
            return 0.0
        if self.waiting:
            return self.waiting[0].arrival
        return None

    @property
    def drained(self) -> bool:
        return not (self.waiting or self.paused or self.active)

    # -- plan construction -----------------------------------------------

    def step(self, now: float) -> BatchPlan:
        self._now = now  # preemptions inside this step happen at `now`
        plan = BatchPlan()
        budget = self.max_batch_tokens
        pool = self.pool
        block_size = pool.block_size
        # Preemption only ever pops the tail of `active` (and of
        # `prefilling`), so the prefill pass walks by index and re-reads
        # the length: an evicted request is simply never reached.
        active = self.active

        # 1) decode: one token per running sequence, oldest first.  All of
        # `decoding` fits the budget (module docstring), so only the
        # requests with a block to grow cost work here.
        tick = self._tick
        decoding = self.decoding
        due = self._grows.pop(tick, None)
        if due is not None:
            due.sort(key=_ADMISSION)
            for req in due:
                if req.state != DECODE:
                    continue  # evicted by an older request's growth
                context = req.prompt_tokens + tick - req._offset
                try:
                    req.kv_slots += block_size * pool.appended(
                        req.req_id, context + 1)
                except CacheExhausted:
                    if not self._grow(req, context + 1, plan):
                        continue  # req preempted itself
                # due again if it outgrows the new blocks before its last
                span = max(req.kv_slots - req.prompt_tokens, 1)
                if span < req.max_new_tokens:
                    self._grows.setdefault(req._offset + span, []).append(req)
        if decoding:
            # an eviction pops `decoding`'s tail, so the batch is read last
            n = len(decoding)
            plan.decode = decoding[:]
            plan.new_tokens = n
            plan.context_tokens = n * tick + self._context_base
            budget -= n

        # 2) prefill for already-admitted prompts
        prefilling = self.prefilling
        i = 0
        while i < len(prefilling) and budget > 0:
            req = prefilling[i]
            i += 1
            budget -= self._plan_prefill(req, budget, plan)

        # 3) admission: preempted first, then the arrival queue.  Admission
        # never evicts (an incoming request is the youngest, so eviction
        # could only hit itself): when the first prefill chunk does not fit
        # the free blocks, admission stops until decode drains some blocks.
        # Both fit tests are inline comparisons, so an attempt that stops
        # here makes no call.
        paused, waiting = self.paused, self.waiting
        capacity = pool.token_capacity
        while budget > 0:
            if paused:
                queue = paused
            elif waiting and waiting[0].arrival <= now:
                queue = waiting
            else:
                break
            req = queue[0]
            if req.prompt_tokens + req.max_new_tokens > capacity:
                queue.popleft()
                req.state = FAILED
                req.fail_reason = "RequestTooLarge"
                plan.failed.append(req)
                continue
            chunk = min(self.prefill_chunk, req.prompt_tokens, budget)
            if chunk > pool.free_blocks * block_size:
                break
            queue.popleft()
            req.state = PREFILL
            req.prefill_done = 0
            req.t_admitted = now
            req._seq = self._admissions
            self._admissions += 1
            req.start_generation(self.gen_seed, self.vocab)
            active.append(req)
            prefilling.append(req)
            plan.admitted.append(req)
            budget -= self._plan_prefill(req, budget, plan)

        return plan

    def _plan_prefill(self, req: Request, budget: int,
                      plan: BatchPlan) -> int:
        """Schedule one prefill chunk for ``req``; tokens consumed."""
        chunk = min(self.prefill_chunk, req.prompt_tokens - req.prefill_done,
                    budget)
        if chunk <= 0:
            return 0
        context = req.prefill_done + chunk
        if context > req.kv_slots:
            try:
                req.kv_slots += self.pool.block_size * self.pool.appended(
                    req.req_id, context)
            except CacheExhausted:
                if not self._grow(req, context, plan):
                    return 0  # req preempted itself while growing
        plan.prefill.append((req, chunk))
        plan.new_tokens += chunk
        plan.context_tokens += context
        return chunk

    def _grow(self, req: Request, total_tokens: int, plan: BatchPlan) -> bool:
        """``appended`` raised :class:`CacheExhausted` for ``req``: evict
        the youngest active requests until ``req`` holds ``total_tokens``
        KV slots.  False when ``req`` ended up evicting itself."""
        while True:
            victim = self.active[-1]
            self._preempt(victim, plan)
            if victim is req:
                return False
            try:
                req.kv_slots += self.pool.block_size * self.pool.appended(
                    req.req_id, total_tokens)
                return True
            except CacheExhausted:
                pass

    def _preempt(self, req: Request, plan: BatchPlan) -> None:
        self.pool.free_sequence(req.req_id)
        self.active.pop()  # victims are always the youngest
        if req.state == PREFILL:
            self.prefilling.pop()  # ... and so the youngest prefilling
        elif req.state == DECODE:
            self.decoding.pop()  # ... or the youngest decoding
            offset = req._offset
            self._context_base -= req.prompt_tokens - offset
            self._ends[offset + req.max_new_tokens - 1].remove(req)
            span = max(req.kv_slots - req.prompt_tokens, 1)
            # a growth due now was popped by this step's decode pass
            if span < req.max_new_tokens and offset + span > self._tick:
                self._grows[offset + span].remove(req)
        req.reset_progress(t=self._now)
        plan._drop(req)
        plan.preempted.append(req)
        self.paused.append(req)

    # -- plan application ------------------------------------------------

    def apply(self, plan: BatchPlan, t: float
              ) -> Tuple[List[Request], List[Request]]:
        """Apply ``plan``'s transitions at completion time ``t``.

        Returns ``(finished, prefill_completed)`` — requests that produced
        their last token this step (their ``output`` is for
        ``draw_outputs`` to fill), and requests whose prompt finished
        processing this step (these also emit their first output token).
        """
        for req in plan.failed:
            req.t_finished = t  # failure time, so closed-loop chains go on

        tick = self._tick
        decoding = self.decoding
        finished: List[Request] = []
        prefill_completed: List[Request] = []

        for req, chunk in plan.prefill:
            req.prefill_done += chunk
            if req.prefill_done >= req.prompt_tokens:
                req.state = DECODE
                self.prefilling.remove(req)
                req.t_prefill_done = t
                prefill_completed.append(req)
                if req.t_first_token is None:  # kept across preemptions
                    req.t_first_token = t
                last = req.max_new_tokens
                if last == 1:
                    finished.append(req)  # its first token is its last
                    continue
                # one token out: it joins `decoding` at offset `tick`, in
                # admission order (a younger prompt may have finished first)
                req._offset = tick
                i = len(decoding)
                while i and decoding[i - 1]._seq > req._seq:
                    i -= 1
                decoding.insert(i, req)
                self._context_base += req.prompt_tokens - tick
                self._ends.setdefault(tick + last - 1, []).append(req)
                span = max(req.kv_slots - req.prompt_tokens, 1)
                if span < last:
                    self._grows.setdefault(tick + span, []).append(req)

        # every request of plan.decode made one token; those that made
        # their last leave, in plan.decode's order
        ends = self._ends.pop(tick, None)
        if ends is not None:
            ends.sort(key=_ADMISSION)
            for req in ends:
                decoding.remove(req)
                self._context_base -= req.prompt_tokens - req._offset
            finished += ends
        self._tick = tick + 1

        for req in finished:
            req.state = FINISHED
            req.t_finished = t
            req.kv_slots = 0
            self.pool.free_sequence(req.req_id)
            self.active.remove(req)
        return finished, prefill_completed
