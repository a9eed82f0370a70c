"""Seedable traffic generators and the serving traffic report.

Both generators are *pure*: request identity, lengths and (for open loop)
arrival times are deterministic functions of the seed, never of execution
order, so the same seed reproduces bitwise-identical schedules and
reports (the serving lane tests it).

``outstanding(records)`` is the restart protocol: given the driver's
completion records it reconstructs precisely the requests still owed —
on a fresh run (empty records) that is the whole workload; after a rank
loss it is the requeued remainder, with closed-loop arrival times
re-derived from each client's last completed turn.

**Open loop** (:class:`OpenLoopTraffic`): Poisson arrivals at ``rate``
requests/s — offered load is independent of service, so queues grow
without bound past the capacity knee; this is the load-sweep generator.
**Closed loop** (:class:`ClosedLoopTraffic`): ``clients`` callers who
each wait for their previous answer (plus ``think_time``) before asking
again — self-throttling, and its saturated goodput is the capacity probe
the benchmark uses to place the open-loop rates.  A closed-loop request's
lengths are what ``np.random.default_rng([seed, req_id])`` draws; the
first request made draws every request's lengths in one pass through the
keyed-draw kernel (:mod:`repro.utils.keyed_rng`, bit-identical to
numpy), and each later request reads its row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.request import Request, RequestRecord
from repro.utils.keyed_rng import KeyedDraws, entropy_words


def _percentile(sorted_vals: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not sorted_vals:
        return None
    k = max(1, math.ceil(q / 100.0 * len(sorted_vals)))
    return float(sorted_vals[k - 1])


class OpenLoopTraffic:
    """Poisson arrivals at a fixed offered rate (requests/second)."""

    kind = "open"

    def __init__(self, rate: float, n_requests: int,
                 prompt_tokens: Tuple[int, int] = (16, 64),
                 max_new_tokens: Tuple[int, int] = (8, 32),
                 seed: int = 0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {n_requests}")
        self.rate = float(rate)
        self.n_requests = int(n_requests)
        self.prompt_tokens = (int(prompt_tokens[0]), int(prompt_tokens[1]))
        self.max_new_tokens = (int(max_new_tokens[0]), int(max_new_tokens[1]))
        self.seed = int(seed)

    def _requests(self) -> List[Request]:
        rng = np.random.default_rng(self.seed)
        gaps = rng.exponential(1.0 / self.rate, self.n_requests)
        arrivals = np.cumsum(gaps)
        prompts = rng.integers(self.prompt_tokens[0],
                               self.prompt_tokens[1] + 1, self.n_requests)
        news = rng.integers(self.max_new_tokens[0],
                            self.max_new_tokens[1] + 1, self.n_requests)
        return [
            Request(i, int(prompts[i]), int(news[i]), float(arrivals[i]),
                    client=i)
            for i in range(self.n_requests)
        ]

    def outstanding(self, records: Dict[int, RequestRecord]
                    ) -> List[Request]:
        return [r for r in self._requests() if r.req_id not in records]

    def next_request(self, finished: Request, t: float) -> Optional[Request]:
        return None  # arrivals don't depend on completions

    def describe(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "rate": self.rate,
            "n_requests": self.n_requests,
            "prompt_tokens": list(self.prompt_tokens),
            "max_new_tokens": list(self.max_new_tokens),
            "seed": self.seed,
        }


class ClosedLoopTraffic:
    """``clients`` concurrent callers, each one request in flight."""

    kind = "closed"

    def __init__(self, clients: int, n_requests: int, think_time: float = 0.0,
                 prompt_tokens: Tuple[int, int] = (16, 64),
                 max_new_tokens: Tuple[int, int] = (8, 32),
                 seed: int = 0) -> None:
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        if n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {n_requests}")
        if think_time < 0:
            raise ValueError(f"think_time must be >= 0, got {think_time}")
        self.clients = int(clients)
        self.n_requests = int(n_requests)
        self.think_time = float(think_time)
        self.prompt_tokens = (int(prompt_tokens[0]), int(prompt_tokens[1]))
        self.max_new_tokens = (int(max_new_tokens[0]), int(max_new_tokens[1]))
        self.seed = int(seed)
        self.rate = None  # no offered rate: load is self-throttled
        #: (prompt_tokens, max_new_tokens) per req_id, drawn at first use
        self._lengths: Optional[List[Tuple[int, int]]] = None

    def _draw_lengths(self) -> List[Tuple[int, int]]:
        # keyed by request identity alone, so the stream is identical no
        # matter in which order completions spawn successors: row i is
        # default_rng([seed, i]).integers(prompt), then .integers(new)
        seed = entropy_words(self.seed)
        words = np.empty((self.n_requests, len(seed) + 1), dtype=np.uint32)
        words[:, :-1] = seed
        words[:, -1] = np.arange(self.n_requests)  # one word per req_id
        draws = KeyedDraws(words)
        prompts = draws.integers(self.prompt_tokens[0],
                                 self.prompt_tokens[1] + 1)
        news = draws.integers(self.max_new_tokens[0],
                              self.max_new_tokens[1] + 1)
        return list(zip(prompts.tolist(), news.tolist()))

    def _make(self, req_id: int, arrival: float) -> Request:
        if self._lengths is None:
            self._lengths = self._draw_lengths()
        prompt, new = self._lengths[req_id]
        return Request(req_id, prompt, new, arrival,
                       client=req_id % self.clients)

    def outstanding(self, records: Dict[int, RequestRecord]
                    ) -> List[Request]:
        out: List[Request] = []
        for client in range(min(self.clients, self.n_requests)):
            k = 0
            prev: Optional[RequestRecord] = None
            while True:
                rid = client + k * self.clients
                if rid >= self.n_requests or rid not in records:
                    break
                prev = records[rid]
                k += 1
            rid = client + k * self.clients
            if rid >= self.n_requests:
                continue  # this client's chain is done
            if prev is None:
                arrival = 0.0
            else:
                arrival = (prev.t_finished or prev.arrival) + self.think_time
            out.append(self._make(rid, arrival))
        return out

    def next_request(self, finished: Request, t: float) -> Optional[Request]:
        nxt = finished.req_id + self.clients
        if nxt >= self.n_requests:
            return None
        return self._make(nxt, t + self.think_time)

    def describe(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "clients": self.clients,
            "n_requests": self.n_requests,
            "think_time": self.think_time,
            "prompt_tokens": list(self.prompt_tokens),
            "max_new_tokens": list(self.max_new_tokens),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class FailureEvent:
    """A replica loss the engine recovered from mid-serving."""

    t: float
    rank: int
    kind: str  # RankFailure | CollectiveTimeout

    def to_dict(self) -> Dict[str, object]:
        return {"t": self.t, "rank": self.rank, "kind": self.kind}


class TrafficReport:
    """Aggregated serving metrics over one traffic run."""

    def __init__(self, records: Dict[int, RequestRecord], *,
                 traffic: Dict[str, object], world: int, makespan: float,
                 restarts: int = 0,
                 failures: Sequence[FailureEvent] = (),
                 kv_blocks: int = 0, kv_peak_blocks: int = 0) -> None:
        self.records = dict(sorted(records.items()))
        self.traffic = dict(traffic)
        self.world = int(world)
        self.makespan = float(makespan)
        self.restarts = int(restarts)
        self.failures = list(failures)
        #: the replica's KV pool and the most blocks ever in use at once
        #: (0/0 when the report was not built by the engine)
        self.kv_blocks = int(kv_blocks)
        self.kv_peak_blocks = int(kv_peak_blocks)

        # one pass over the completed records: TTFT and per-token latency
        # are the records' own ``ttft`` / ``token_latency`` fields, e2e
        # latency is ``t_finished - arrival`` (defined here only)
        self.n_issued = len(self.records)
        self.n_completed = self.n_failed = 0
        self.preemptions = self.output_tokens = 0
        ttfts: List[float] = []
        lats: List[float] = []
        e2es: List[float] = []
        for r in self.records.values():
            self.preemptions += r.preemptions
            if not r.completed:
                if r.fail_reason is not None:
                    self.n_failed += 1
                continue
            self.n_completed += 1
            self.output_tokens += len(r.output)
            e2es.append(r.t_finished - r.arrival)
            if r.ttft is not None:
                ttfts.append(r.ttft)
                lats.append(r.token_latency)
        ttfts.sort()
        lats.sort()
        e2es.sort()

        span = self.makespan if self.makespan > 0 else float("nan")
        self.goodput_tokens_per_sec = self.output_tokens / span
        self.completed_per_sec = self.n_completed / span

        self.p50_ttft = _percentile(ttfts, 50)
        self.p99_ttft = _percentile(ttfts, 99)
        self.mean_token_latency = (
            sum(lats) / len(lats) if lats else None)
        self.p99_token_latency = _percentile(lats, 99)
        self.p50_e2e = _percentile(e2es, 50)
        self.p99_e2e = _percentile(e2es, 99)

    def to_dict(self) -> Dict[str, object]:
        return {
            "traffic": self.traffic,
            "world": self.world,
            "makespan": self.makespan,
            "restarts": self.restarts,
            "failures": [f.to_dict() for f in self.failures],
            "requests": {
                "issued": self.n_issued,
                "completed": self.n_completed,
                "failed": self.n_failed,
                "preemptions": self.preemptions,
                "output_tokens": self.output_tokens,
            },
            "goodput": {
                "tokens_per_sec": self.goodput_tokens_per_sec,
                "requests_per_sec": self.completed_per_sec,
            },
            "latency": {
                "p50_ttft": self.p50_ttft,
                "p99_ttft": self.p99_ttft,
                "mean_token_latency": self.mean_token_latency,
                "p99_token_latency": self.p99_token_latency,
                "p50_e2e": self.p50_e2e,
                "p99_e2e": self.p99_e2e,
            },
            "kv": {
                "blocks": self.kv_blocks,
                "peak_blocks": self.kv_peak_blocks,
            },
            "records": [r.to_dict() for r in self.records.values()],
        }

    def format(self) -> str:
        def ms(v: Optional[float]) -> str:
            return "-" if v is None else f"{v * 1e3:.3f}ms"

        lines = [
            f"serving report — world={self.world} "
            f"traffic={self.traffic.get('kind')} "
            f"makespan={self.makespan:.6f}s",
            f"  requests: issued={self.n_issued} "
            f"completed={self.n_completed} failed={self.n_failed} "
            f"preemptions={self.preemptions} restarts={self.restarts}",
            f"  goodput: {self.goodput_tokens_per_sec:.1f} tok/s "
            f"({self.completed_per_sec:.2f} req/s)",
            f"  ttft: p50={ms(self.p50_ttft)} p99={ms(self.p99_ttft)}",
            f"  per-token: mean={ms(self.mean_token_latency)} "
            f"p99={ms(self.p99_token_latency)}",
            f"  e2e: p50={ms(self.p50_e2e)} p99={ms(self.p99_e2e)}",
        ]
        if self.kv_blocks:
            lines.append(
                f"  kv: peak {self.kv_peak_blocks}/{self.kv_blocks} blocks "
                f"({self.kv_peak_blocks / self.kv_blocks:.1%})")
        if self.failures:
            lines.append("  failures: " + ", ".join(
                f"rank{f.rank}:{f.kind}@{f.t:.6f}s" for f in self.failures))
        return "\n".join(lines)
