"""Measurement primitives of the benchmark: CPU pinning, the calibration
loop, the Python-call counter / self-time profiler, and bench-level spans.

Nothing here imports ``repro``: the harness observes the program from
outside.  Layers are the first path component under ``src/repro``
(``LAYERS``); a frame belongs to the layer its ``co_filename`` sits in.

Why these three instruments (numbers measured on the 2-core authoring
host, see README):

* raw host seconds do not repeat across process launches (0.26 s vs
  0.45 s for the same step), so the process is pinned to one CPU and wall
  time is divided by an interleaved calibration pass that contends for the
  GIL the same way the program's rank threads do;
* the call counter is machine independent: it repeats to ~1e-4, which is
  what lets ``host_pycalls_per_iter`` carry a 1 % bound.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``src/repro/<layer>`` packages a frame is bucketed into, in report order
LAYERS = (
    "autograd", "tensor", "nn", "parallel", "zero", "comm", "runtime",
    "cluster", "engine", "trace", "sanitize", "project", "analytic",
    "autopar", "serve",
)
#: everything else under ``src/repro`` (config, context, models, optim, ...)
OTHER = "other"

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: where the program under test lives, relative to this directory
SRC_DIR = os.path.join(os.path.dirname(_BENCH_DIR), "src")
_REPRO_PREFIX = os.path.join(SRC_DIR, "repro") + os.sep


def pin_to_one_cpu() -> int:
    """Pin this process (and every thread/child it starts) to the highest
    CPU it is allowed to run on; returns the CPU number, or -1 where the
    platform has no affinity call."""
    if not hasattr(os, "sched_setaffinity"):
        return -1
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# -- calibration ---------------------------------------------------------------

_CALIB_THREADS = 4
_CALIB_LOOPS = 25000
#: wall seconds of one calibration pass on the authoring host when nothing
#: else runs; ``setup_s`` is reported in seconds of a host this fast
REFERENCE_CALIB_S = 0.042


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: Tuple[int, int]) -> None:
        self.a = a
        self.b = b

    def bump(self, x: int) -> int:
        return self.a + x


def _calib_body(n: int) -> None:
    """Allocate, call and touch a few hundred KiB of small objects, as
    the interpreter-bound program does.  An arithmetic-only loop lives in
    registers and stayed flat while a noisy neighbour slowed the program
    by 15 %; this one slows with it (launch-to-launch range of the ratio
    on `plan_compile_project`: 13.5 % against the arithmetic loop, 7.9 %
    against this)."""
    table: Dict[int, _Cell] = {}
    kept: List[int] = []
    for i in range(n):
        cell = _Cell(i, (i, i + 1))
        table[i & 4095] = cell
        kept.append(cell.bump(i))
        if len(kept) > 5000:
            kept = []


def calibration_pass() -> float:
    """Wall seconds for four threads to each finish a fixed pure-Python
    loop.  Takes no seed: it is the ruler, not a workload.  Four threads
    because the program's rank threads also hand the GIL around, which a
    single-thread loop never pays for."""
    threads = [
        threading.Thread(target=_calib_body, args=(_CALIB_LOOPS,))
        for _ in range(_CALIB_THREADS)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0


# -- layer classification --------------------------------------------------------

def _layer_of(filename: str) -> Optional[str]:
    """Layer name for a code filename, ``None`` outside ``src/repro``."""
    if not filename.startswith(_REPRO_PREFIX):
        return None
    head = filename[len(_REPRO_PREFIX):].split(os.sep, 1)[0]
    return head if head in LAYERS else OTHER


class CallProfile:
    """Counts Python ``call`` events into ``src/repro`` per layer and,
    with ``self_time=True``, attributes each thread's CPU time to the layer
    whose frame is on top of that thread's stack.

    One hook closure per thread (installed by the first event the thread
    sees) keeps the counters thread-private, so counts are exact rather
    than racing on a shared dict; they are merged in :meth:`stop`.
    """

    def __init__(self, self_time: bool = False) -> None:
        self.self_time = self_time
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self._parts: List[Tuple[Dict[str, int], Dict[str, float]]] = []
        self._lock = threading.Lock()
        self._by_file: Dict[str, Optional[str]] = {}

    def _make_hook(self) -> Callable:
        calls: Dict[str, int] = {}
        secs: Dict[str, float] = {}
        with self._lock:
            self._parts.append((calls, secs))
        by_file = self._by_file

        def classify(filename: str) -> Optional[str]:
            layer = by_file.get(filename, 0)
            if layer == 0:
                layer = by_file[filename] = _layer_of(filename)
            return layer  # type: ignore[return-value]

        if not self.self_time:
            def count_hook(frame, event, arg):
                if event == "call":
                    layer = classify(frame.f_code.co_filename)
                    if layer is not None:
                        calls[layer] = calls.get(layer, 0) + 1
            return count_hook

        clock = time.thread_time
        stack: List[Optional[str]] = []
        last = [clock()]

        def time_hook(frame, event, arg):
            if event == "call":
                now = clock()
                if stack:
                    top = stack[-1]
                    if top is not None:
                        secs[top] = secs.get(top, 0.0) + now - last[0]
                layer = classify(frame.f_code.co_filename)
                stack.append(layer)
                if layer is not None:
                    calls[layer] = calls.get(layer, 0) + 1
                last[0] = clock()
            elif event == "return":
                now = clock()
                if stack:
                    top = stack.pop()
                    if top is not None:
                        secs[top] = secs.get(top, 0.0) + now - last[0]
                last[0] = clock()
        return time_hook

    def _bootstrap(self, frame, event, arg):
        hook = self._make_hook()
        sys.setprofile(hook)
        return hook(frame, event, arg)

    def start(self) -> None:
        threading.setprofile(self._bootstrap)
        sys.setprofile(self._make_hook())

    def stop(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)  # type: ignore[arg-type]
        for calls, secs in self._parts:
            for k, v in calls.items():
                self.calls[k] = self.calls.get(k, 0) + v
            for k, v in secs.items():
                self.seconds[k] = self.seconds.get(k, 0.0) + v

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())


# -- bench-level spans -----------------------------------------------------------

class Spans:
    """In-memory host-time spans recorded by ``bench/`` around its calls
    into the program: name, layer, start, end, parent.  Single-threaded
    (the driver thread only), so nesting is a plain stack."""

    def __init__(self, workload: str = "", iteration: int = 0) -> None:
        self.workload = workload
        self.iteration = iteration
        self.rows: List[Dict[str, Any]] = []
        self._open: List[int] = []

    def span(self, name: str, layer: str = "harness") -> "_SpanCtx":
        return _SpanCtx(self, name, layer)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(r["t1"] - r["t0"] for r in self.rows if r["name"] == name)

    def self_seconds(self) -> List[float]:
        """Per span: its duration minus the time its child spans cover."""
        out = [r["t1"] - r["t0"] for r in self.rows]
        for r in self.rows:
            if r["parent"] >= 0:
                out[r["parent"]] -= r["t1"] - r["t0"]
        return out

    def chrome_events(self) -> List[Dict[str, Any]]:
        self_s = self.self_seconds()
        return [
            {
                "name": r["name"], "cat": r["layer"], "ph": "X",
                "pid": 0, "tid": 0,
                "ts": r["t0"] * 1e6, "dur": (r["t1"] - r["t0"]) * 1e6,
                "args": {
                    "span": i, "parent": r["parent"],
                    "self_us": self_s[i] * 1e6,
                    "workload": self.workload, "iteration": self.iteration,
                },
            }
            for i, r in enumerate(self.rows)
        ]


class _SpanCtx:
    __slots__ = ("_spans", "_row")

    def __init__(self, spans: Spans, name: str, layer: str) -> None:
        self._spans = spans
        self._row = {"name": name, "layer": layer, "t0": 0.0, "t1": 0.0,
                     "parent": spans._open[-1] if spans._open else -1}

    def __enter__(self) -> None:
        s = self._spans
        s._open.append(len(s.rows))
        s.rows.append(self._row)
        self._row["t0"] = time.perf_counter()

    def __exit__(self, *exc: Any) -> None:
        self._row["t1"] = time.perf_counter()
        self._spans._open.pop()


class NullSpans(Spans):
    """Span recorder for untraced iterations: records nothing."""

    def span(self, name: str, layer: str = "harness") -> Any:
        return _NULL_CTX


_NULL_CTX = contextlib.nullcontext()


def write_chrome_trace(path: str, spans: Spans,
                       program_events: Optional[List[Dict[str, Any]]]) -> None:
    """Bench spans (host time, pid 0) and the program's own ``Tracer``
    export for the same iteration (simulated time, its own pids) in one
    Chrome-trace file."""
    events = spans.chrome_events()
    events.append({"name": "process_name", "ph": "M", "pid": 0,
                   "args": {"name": "bench (host seconds)"}})
    for ev in program_events or ():
        ev = dict(ev)
        ev["pid"] = int(ev.get("pid", 0)) + 1
        events.append(ev)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
