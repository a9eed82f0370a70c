"""One workload in one fresh process: set up, time, count, trace.

Started by ``run.py`` (never by hand) as

    worker.py --workload W --seed S --t0 EPOCH
              (--iterations full|quick | --seconds T)
              [--trace 0|1] [--trace-out DIR] [--timed-only]

and prints one JSON object as its last line.  A fresh process per
workload makes ``setup_s``, peak RSS and every cache the program keeps a
per-workload reading.

Run shape: a calibration pass -> set-up (imports, inputs from the seed, one
warm-up iteration) -> timed iterations with tracing off, a calibration pass before and after
each -> one iteration under the profile hook (not timed) -> with
``--trace 1`` one traced iteration and the workload's extra runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

import harness

sys.path.insert(0, harness.SRC_DIR)

Checks = List[Tuple[str, bool]]


def _public(values: Dict[str, Any]) -> Dict[str, float]:
    """Keys starting with ``_`` pin extra outputs for the drift check
    only; they are not metrics."""
    return {k: v for k, v in values.items() if not k.startswith("_")}


class Run:
    """State of one worker run, phase by phase."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.cpu = harness.pin_to_one_cpu()
        calib_before = harness.calibration_pass()
        from workloads import load

        self.checks: Checks = []
        self.workload = load(args.workload)(args.seed)
        self.checks.extend(self.workload.setup_checks)
        self.warm = self._iterate(harness.NullSpans(), False, drift=False)
        self.setup_wall_s = time.time() - args.t0 - calib_before
        self.walls: List[float] = []
        self.calib: List[float] = [harness.calibration_pass()]
        # host seconds drift by 2x within minutes on a shared machine, so
        # set-up is scaled, like an iteration, by the calibration passes
        # around it -- and back to seconds at the reference host speed
        self.setup_s = (self.setup_wall_s
                        / ((calib_before + self.calib[0]) / 2.0)
                        * harness.REFERENCE_CALIB_S)

    def _iterate(self, spans: harness.Spans, observe: bool,
                 drift: bool = True) -> Any:
        """One iteration plus its checks; simulated metrics must be
        bit-identical to the warm-up's, a drift is a failed check."""
        result = self.workload.iterate(spans, observe)
        self.checks.extend(result.checks)
        if drift:
            self.checks.append(
                ("sim_metrics_identical", result.sim == self.warm.sim))
        return result

    def timed(self) -> None:
        """Timed iterations, tracing off, calibration interleaved."""
        args, wl = self.args, self.workload
        target = {"full": wl.iterations, "quick": wl.quick_iterations,
                  None: None}[args.iterations]
        t_begin = time.perf_counter()

        def done() -> bool:
            if target is not None:
                return len(self.walls) >= target
            return (bool(self.walls)
                    and time.perf_counter() - t_begin >= args.seconds)

        while not done():
            gc.collect()  # every iteration starts from the same GC state
            t0 = time.perf_counter()
            self._iterate(harness.NullSpans(), False)
            self.walls.append(time.perf_counter() - t0)
            self.calib.append(harness.calibration_pass())

    def iter_cu(self) -> List[float]:
        """Each iteration's wall time in units of the two calibration
        passes around it."""
        c = self.calib
        return [w / ((c[i] + c[i + 1]) / 2.0)
                for i, w in enumerate(self.walls)]

    def profiled(self) -> harness.CallProfile:
        """One iteration under the profile hook; never timed."""
        profile = harness.CallProfile(self_time=bool(self.args.trace))
        gc.collect()
        profile.start()
        try:
            self._iterate(harness.NullSpans(), False)
        finally:
            profile.stop()
        return profile

    def traced(self, profile: harness.CallProfile) -> Dict[str, float]:
        """Per-layer numbers: the profile's calls and self time, one
        iteration with bench spans and the program's own ``Tracer``, and
        whatever extra runs the workload needs."""
        args = self.args
        calib_unit = statistics.median(self.calib)
        wall_p50 = statistics.median(self.walls)
        layers: Dict[str, float] = {}
        profiled_s = sum(profile.seconds.values())
        for layer in harness.LAYERS:
            layers[f"{layer}.pycalls"] = profile.calls.get(layer, 0)
            layers[f"{layer}.self_share"] = (
                profile.seconds.get(layer, 0.0) / profiled_s
                if profiled_s else 0.0)

        spans = harness.Spans(args.workload, iteration=0)
        gc.collect()
        t0 = time.perf_counter()
        with spans.span("iteration"):
            traced = self._iterate(spans, True)
        traced_wall = time.perf_counter() - t0

        layers.update(_public(traced.layers))
        for metric, seconds in self.workload.host_seconds(spans).items():
            layers[metric] = seconds / calib_unit
        steps = traced.layers.get("_steps_per_iter")
        if steps:
            layers["serve.host_us_per_step"] = wall_p50 / steps * 1e6

        def measure_cu(fn: Callable[[], Any]) -> float:
            before = harness.calibration_pass()
            gc.collect()
            t = time.perf_counter()
            fn()
            wall = time.perf_counter() - t
            return wall / ((before + harness.calibration_pass()) / 2.0)

        layers.update(self.workload.extra_layer_metrics(measure_cu))
        layers.update({
            "harness.iter_wall_s_p50": wall_p50,
            "harness.iter_wall_s_max": max(self.walls),
            "harness.calib_unit_s": calib_unit,
            "harness.samples": len(self.walls),
            "harness.trace_overhead_ratio": traced_wall / wall_p50,
            "harness.pinned_cpu": self.cpu,
        })
        if args.trace_out:
            os.makedirs(args.trace_out, exist_ok=True)
            harness.write_chrome_trace(
                os.path.join(args.trace_out, f"{args.workload}.trace.json"),
                spans, traced.program_trace)
        return layers


def run(args: argparse.Namespace) -> Dict[str, Any]:
    r = Run(args)
    r.timed()
    iter_cu = r.iter_cu()
    out: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "iterations": len(r.walls),
        "iter_cu": iter_cu,
        "iter_wall_s": r.walls,
        "calib_s": r.calib,
        "setup_wall_s": r.setup_wall_s,
        "e2e": {
            "setup_s": r.setup_s,
            "host_iter_cu": statistics.median(iter_cu),
            # read before the profile hook and tracer add their own memory
            "host_peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **_public(r.warm.sim),
        },
    }
    if not args.timed_only:
        profile = r.profiled()
        out["e2e"]["host_pycalls_per_iter"] = profile.total_calls
        if args.trace:
            out["per_layer"] = r.traced(profile)
    failed = [name for name, ok in r.checks if not ok]
    out["checks"] = {"attempted": len(r.checks), "failed": len(failed),
                     "failed_names": sorted(set(failed))}
    out["e2e"]["ops_failed_share"] = len(failed) / len(r.checks)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.time() just before this process was started")
    ap.add_argument("--iterations", choices=("full", "quick"))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--timed-only", action="store_true",
                    help="stop after the timed iterations")
    args = ap.parse_args()
    if args.iterations is None and args.seconds is None:
        ap.error("one of --iterations / --seconds is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
