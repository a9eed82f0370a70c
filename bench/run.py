"""The benchmark's one command.

Report mode (what a person runs)::

    python bench/run.py [--workload W] [--seed S] [--quick] [--runs N]
                        [--out F] [--trace-out DIR]

runs every workload (or one) in a fresh pinned subprocess each, prints
every metric by name with its unit, checks the outputs and writes the
result set to ``--out`` for ``compare.py``.

Driver mode (the ``BENCHMARK.json`` contract)::

    python bench/run.py --workload W --seed S --seconds T --trace 0|1

measures one workload for ``T`` seconds and prints, as the last line of
standard output, one JSON object: the manifest's ``end_to_end`` metrics
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _BENCH_DIR)

import harness  # noqa: E402
import metrics  # noqa: E402
from workloads import REGISTRY  # noqa: E402

_WORKER = os.path.join(_BENCH_DIR, "worker.py")
#: a worker that has not answered by then is stopped and the run fails
_WORKER_TIMEOUT_S = 170
#: fresh processes per driver run.  Host time differs from one launch to
#: the next by more than it differs inside a launch, so a run splits its
#: seconds over several launches and reports medians over all of them.
_LAUNCHES_PER_RUN = 3


class WorkerFailed(RuntimeError):
    pass


def spawn_worker(workload: str, seed: int, *extra: str) -> Dict[str, Any]:
    """Run one worker to completion and return the object it printed."""
    cmd = [sys.executable, _WORKER, "--workload", workload,
           "--seed", str(seed), "--t0", repr(time.time()), *extra]
    # a fixed string-hash seed: dict/set order is one thing less that
    # differs between launches
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=_WORKER_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload}: no result after "
                           f"{_WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload}: worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_metrics(title: str, values: Dict[str, float],
                   table: metrics.Table) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:32s} {value:<22.10g} {table.unit(name)}")


# -- driver mode ---------------------------------------------------------------

def driver_run(args: argparse.Namespace, table: metrics.Table) -> int:
    if args.trace:
        res = spawn_worker(args.workload, args.seed, "--seconds",
                           str(args.seconds), "--trace", "1")
        # a layer the workload never enters reads 0, as its counters would
        got = dict(res["per_layer"])
        got.update({k: v for k, v in res["e2e"].items()
                    if k in table.per_layer})
        values = {name: got.get(name, 0) for name in table.per_layer}
    else:
        share = str(args.seconds / _LAUNCHES_PER_RUN)
        res = spawn_worker(args.workload, args.seed, "--seconds", share)
        launches = [res] + [
            spawn_worker(args.workload, args.seed, "--seconds", share,
                         "--timed-only")
            for _ in range(_LAUNCHES_PER_RUN - 1)]
        for other in launches[1:]:
            res["checks"]["attempted"] += other["checks"]["attempted"]
            res["checks"]["failed"] += other["checks"]["failed"]
            res["checks"]["failed_names"] += other["checks"]["failed_names"]
            res["iterations"] += other["iterations"]
        values = {
            "setup_s": statistics.median(
                w["e2e"]["setup_s"] for w in launches),
            "host_iter_cu": statistics.median(
                cu for w in launches for cu in w["iter_cu"]),
            "host_pycalls_per_iter": res["e2e"]["host_pycalls_per_iter"],
            "host_peak_rss_mb": statistics.median(
                w["e2e"]["host_peak_rss_mb"] for w in launches),
        }
        values = {name: values[name] for name in table.host_e2e}
    checks = res["checks"]
    _print_metrics(f"{args.workload} seed={args.seed} "
                   f"iterations={res['iterations']}", values, table)
    if checks["failed"]:
        print(f"  FAILED checks: {', '.join(checks['failed_names'])}")
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": value, "unit": table.unit(name)}
                    for name, value in values.items()},
    }))
    return 0


# -- report mode -----------------------------------------------------------------

def report_run(args: argparse.Namespace, table: metrics.Table) -> int:
    names = [args.workload] if args.workload else list(REGISTRY)
    length = "quick" if args.quick else "full"
    runs: List[Dict[str, Any]] = []
    failed_any = False
    for i in range(args.runs):
        seed = args.seed + i
        run: Dict[str, Any] = {}
        for name in names:
            extra = ["--iterations", length, "--trace", "1"]
            if args.trace_out:
                extra += ["--trace-out", args.trace_out]
            res = run[name] = spawn_worker(name, seed, *extra)
            checks = res["checks"]
            print(f"\n== {name}  seed={seed}  iterations={res['iterations']}"
                  f"  checks {checks['attempted'] - checks['failed']}"
                  f"/{checks['attempted']} ok ==")
            _print_metrics("end to end", {
                k: res["e2e"][k] for k in metrics.E2E_ORDER
                if k in res["e2e"]}, table)
            _print_metrics("per layer", res["per_layer"], table)
            if checks["failed"]:
                failed_any = True
                print(f"  FAILED checks: {', '.join(checks['failed_names'])}")
        if not _storms_agree(run):
            failed_any = True
            print("\nFAILED: collectives_observed.sim_step_s != "
                  "collectives_spec.sim_step_s")
        runs.append(run)
    if args.quick:
        print("\n--quick: iteration counts shrunk, host metrics are NOT "
              "comparable with a full run")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"comparable": not args.quick, "seed": args.seed,
                       "runs": runs}, f, indent=1)
    return 1 if failed_any else 0


def _storms_agree(run: Dict[str, Any]) -> bool:
    """The observed storm must report the bare storm's simulated time
    (also checked inside the observed workload's own process)."""
    if not {"collectives_spec", "collectives_observed"} <= set(run):
        return True
    return (run["collectives_spec"]["e2e"]["sim_step_s"]
            == run["collectives_observed"]["e2e"]["sim_step_s"])


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(REGISTRY))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="fewer iterations of the same workloads; output "
                         "is marked not comparable")
    ap.add_argument("--runs", type=int, default=1,
                    help="report mode: repeat the whole set, seeds "
                         "SEED, SEED+1, ...")
    ap.add_argument("--out", help="report mode: write the result set here")
    ap.add_argument("--trace-out",
                    help="report mode: directory for Chrome-trace files")
    ap.add_argument("--seconds", type=float,
                    help="driver mode: measure this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="driver mode: 0 end-to-end, 1 per-layer metrics")
    args = ap.parse_args(argv)
    if args.seconds is not None and not args.workload:
        ap.error("--seconds needs --workload")
    table = metrics.Table()
    harness.pin_to_one_cpu()  # workers inherit the affinity
    try:
        if args.seconds is not None:
            return driver_run(args, table)
        return report_run(args, table)
    except WorkerFailed as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
