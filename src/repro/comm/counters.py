"""Wire-traffic counters.

``CommCounters`` accumulates, per process group, the total number of bytes
and elements that crossed the interconnect, broken down by collective kind.
"Total" follows the paper's Table 1 convention: the sum over all ranks of
elements each rank put on the wire (so a ring allreduce of S elements over p
ranks counts 2(p-1)·S in total).
"""

from __future__ import annotations

import copy
import math
import threading
from dataclasses import dataclass, field, fields
from typing import Dict, List


@dataclass
class CommCounters:
    """Thread-safe traffic accumulator for one process group.

    Retransmissions (fault-injected drops/corruptions healed by the retry
    layer) are tracked both separately — ``retries_total`` /
    ``retry_bytes_total`` / ``by_op_retries`` — and folded into
    ``bytes_total``, because retransmitted bytes really do cross the wire.
    They do not increment ``calls_total`` (the call eventually succeeds
    exactly once).
    """

    bytes_total: int = 0
    elements_total: int = 0
    calls_total: int = 0
    retries_total: int = 0
    retry_bytes_total: int = 0
    #: comm/compute-overlap accounting (nonblocking ops only, one term per
    #: member rank's wait, appended by ``GroupTimeline.settle``): seconds the
    #: compute clock stalled on a handle vs seconds hidden behind compute.
    #: Append-only term lists read with ``math.fsum`` — a correctly rounded
    #: sum has no order, so the totals are the same float whichever thread
    #: waited first.  Not folded into byte totals.
    exposed_terms: List[float] = field(default_factory=list, repr=False)
    overlapped_terms: List[float] = field(default_factory=list, repr=False)
    by_op_bytes: Dict[str, int] = field(default_factory=dict)
    by_op_elements: Dict[str, int] = field(default_factory=dict)
    by_op_calls: Dict[str, int] = field(default_factory=dict)
    by_op_retries: Dict[str, int] = field(default_factory=dict)
    by_algorithm_bytes: Dict[str, int] = field(default_factory=dict)
    by_algorithm_calls: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, op: str, wire_bytes: int, wire_elements: int,
               algorithm: str = "") -> None:
        with self._lock:
            self.bytes_total += wire_bytes
            self.elements_total += wire_elements
            self.calls_total += 1
            self.by_op_bytes[op] = self.by_op_bytes.get(op, 0) + wire_bytes
            self.by_op_elements[op] = self.by_op_elements.get(op, 0) + wire_elements
            self.by_op_calls[op] = self.by_op_calls.get(op, 0) + 1
            if algorithm:
                self.by_algorithm_bytes[algorithm] = (
                    self.by_algorithm_bytes.get(algorithm, 0) + wire_bytes
                )
                self.by_algorithm_calls[algorithm] = (
                    self.by_algorithm_calls.get(algorithm, 0) + 1
                )

    def record_retry(self, op: str, wire_bytes: int, wire_elements: int,
                     attempts: int = 1) -> None:
        """Account ``attempts`` failed transmission attempts of ``op`` whose
        payload totalled ``wire_bytes`` / ``wire_elements`` on the wire."""
        with self._lock:
            self.retries_total += attempts
            self.retry_bytes_total += wire_bytes
            self.bytes_total += wire_bytes
            self.elements_total += wire_elements
            self.by_op_retries[op] = self.by_op_retries.get(op, 0) + attempts
            self.by_op_bytes[op] = self.by_op_bytes.get(op, 0) + wire_bytes
            self.by_op_elements[op] = self.by_op_elements.get(op, 0) + wire_elements

    @property
    def exposed_seconds_total(self) -> float:
        return math.fsum(self.exposed_terms)

    @property
    def overlapped_seconds_total(self) -> float:
        return math.fsum(self.overlapped_terms)

    def copy(self) -> "CommCounters":
        """An independent copy: every total, term list and table."""
        out = CommCounters()
        with self._lock:
            for f in fields(self):
                if f.name != "_lock":
                    setattr(out, f.name, copy.copy(getattr(self, f.name)))
        return out

    def add_since(self, now: "CommCounters", then: "CommCounters") -> None:
        """Add what ``now`` gained over ``then``, an earlier copy of it."""
        with self._lock:
            for f in fields(self):
                name = f.name
                if name == "_lock":
                    continue
                mine, gained, base = (getattr(self, name), getattr(now, name),
                                      getattr(then, name))
                if type(mine) is int:
                    setattr(self, name, mine + gained - base)
                elif type(mine) is list:
                    mine.extend(gained[len(base):])
                else:
                    for key, n in gained.items():
                        if key not in base or n != base[key]:
                            mine[key] = mine.get(key, 0) + n - base.get(key, 0)

    def reset(self) -> None:
        with self._lock:
            self.bytes_total = 0
            self.elements_total = 0
            self.calls_total = 0
            self.retries_total = 0
            self.retry_bytes_total = 0
            self.exposed_terms.clear()
            self.overlapped_terms.clear()
            self.by_op_bytes.clear()
            self.by_op_elements.clear()
            self.by_op_calls.clear()
            self.by_op_retries.clear()
            self.by_algorithm_bytes.clear()
            self.by_algorithm_calls.clear()
