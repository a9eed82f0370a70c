"""Reachability census: who reaches each definition under ``src/repro``.

    python tools/census.py --write CENSUS.md          # all four drivers, ~7 min on 2 vCPUs
    python tools/census.py --drivers tier1,examples   # the fast half, to stdout

Four drivers run under a ``sys`` / ``threading.setprofile`` hook keyed by code
object: tier-1 (tagged per test module), ``pytest benchmarks/`` (the figures),
every ``examples/*.py``, ``bench/run.py --quick`` (the entry points).  A PR-time
instrument (DESIGN §4p); ``tests/test_reachability.py`` runs on every push.
Four pitfalls it already hit:

* ``tests/test_perf_guard.py`` clears ``threading.setprofile``: the hook is
  re-armed before every test (``pytest_runtest_setup`` below, ``-p census``).
* ``pytest-benchmark`` drops the profile hook while it times: the paper lane runs
  with ``--benchmark-disable`` (else Fig 10's ``bandwidth.measure_*`` reads dead).
* ``bench/worker.py`` runs each workload in a subprocess: the hook arrives by
  ``tools/sitecustomize.py`` on ``PYTHONPATH``, never by editing ``bench/``.
* the hook runs single tests past tier-1's 60 s ``faulthandler_timeout``, which
  printed every thread's stack mid-run: the pytest lanes turn it off.
"""

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
from keep import kept_by  # tools/ is the script directory, or on PYTHONPATH in a driver

CLASSES = {"entry point": "entry", "paper figure": "figure", "example": "example",
           "tests only": "tier1", "nothing": ""}  # reached-by class -> driver-tag prefix
_seen: dict[str, set] = {}      # driver tag -> code objects called under it
_cur: set = set()


def _hook(frame, event, arg):
    if event == "call":
        _cur.add(frame.f_code)


def arm(tag: str) -> None:
    """Record calls under ``tag`` in this thread and in every thread started later."""
    global _cur
    _cur = _seen.setdefault(tag, set())
    threading.setprofile(_hook)
    sys.setprofile(_hook)


def pytest_runtest_setup(item):
    arm(f"{os.environ['CENSUS_TAG']}:{item.module.__name__}")


def dump() -> None:
    """At exit of a driver process (``sitecustomize`` registers it): what ran, by tag."""
    sys.setprofile(None)
    src = str(SRC)
    out = {tag: sorted({f"{c.co_filename[len(src) + 1:]}::{c.co_qualname.split('.<locals>')[0]}"
                        for c in codes if c.co_filename.startswith(src)})
           for tag, codes in _seen.items()}
    Path(os.environ["CENSUS_DIR"], f"{os.getpid()}.json").write_text(json.dumps(out))


def definitions() -> dict[str, tuple[int, str]]:
    """Every non-nested ``def``: ``file::qualname`` -> (lines, ``"stub"`` if a ``__repr__`` or abstract)."""
    defs = {}

    def walk(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                body = [s for s in child.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
                stub = child.name == "__repr__" or all(isinstance(s, (ast.Raise, ast.Pass)) for s in body)
                defs[f"{rel}::{prefix}{child.name}"] = (child.end_lineno - first + 1, "stub" if stub else "")
            elif isinstance(child, ast.ClassDef):
                walk(child, rel, f"{prefix}{child.name}.")
            else:
                walk(child, rel, prefix)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text()), str(path.relative_to(SRC)), "")
    return defs


def run_drivers(wanted: set[str], out_dir: str) -> None:
    py = sys.executable
    pytest = [py, "-m", "pytest", "-q", "-p", "census", "-p", "no:cacheprovider",
              "-o", "faulthandler_timeout=0"]
    runs = [("tier1", "tier1", pytest + ["tests"]),
            ("figures", "figure", pytest + ["--benchmark-disable", "benchmarks"])]
    runs += [("examples", f"example:{p.stem}", [py, str(p)]) for p in sorted((ROOT / "examples").glob("*.py"))]
    runs.append(("bench", "entry", [py, "bench/run.py", "--quick"]))
    path = os.pathsep.join([str(ROOT / "tools"), str(ROOT / "src")])
    for driver, tag, cmd in runs:
        if driver in wanted:
            print(f"census: {tag}", file=sys.stderr)
            env = dict(os.environ, PYTHONPATH=path, CENSUS_DIR=out_dir, CENSUS_TAG=tag)
            subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)


def render(reach: dict[str, set[str]], drivers: str) -> str:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
                            stdout=subprocess.PIPE).stdout.strip()
    rows: dict[str, list] = {c: [] for c in CLASSES}
    for key, (lines, stub) in definitions().items():
        tags = reach.get(key, set())
        cls = next(c for c, prefix in CLASSES.items() if any(t.startswith(prefix) for t in tags) or not prefix)
        rows[cls].append((*key.split("::"), lines, stub, sorted(t.partition(":")[2].removeprefix("test_") or "import" for t in tags)))
    out = ["# Reachability census of `src/repro`", "",
           f"Generated on top of `{commit}` by `python tools/census.py --drivers {drivers} --write CENSUS.md`.", "",
           "| reached by | definitions | lines |", "|---|---|---|"]
    out += [f"| {c} | {len(r)} | {sum(x[2] for x in r)} |" for c, r in rows.items()]
    out.append(f"| **all** | {sum(map(len, rows.values()))} | {sum(x[2] for r in rows.values() for x in r)} |")
    for c in ("nothing", "tests only"):
        out += ["", f"## Reached by {c}", "",
                "| file | definition | lines | test modules | why it stays (`tools/keep.py` row) |", "|---|---|---|---|---|"]
        for rel, qual, lines, stub, mods in rows[c]:
            shown = ", ".join(mods[:3]) + (f", +{len(mods) - 3}" if len(mods) > 3 else "")
            why = "`__repr__` / abstract stub" if stub else kept_by(rel, qual) or "**none**"
            out.append(f"| {rel} | `{qual}` | {lines} | {shown} | {why} |")
    return "\n".join(out + [""])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--drivers", default="tier1,figures,examples,bench")
    ap.add_argument("--write", help="write the table here instead of standard output")
    args = ap.parse_args()
    reach: dict[str, set[str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        run_drivers(set(args.drivers.split(",")), tmp)
        for part in Path(tmp).glob("*.json"):
            for tag, keys in json.loads(part.read_text()).items():
                for key in keys:
                    reach.setdefault(key, set()).add(tag)
    text = render(reach, args.drivers)
    Path(args.write).write_text(text) if args.write else print(text)


if __name__ == "__main__":
    main()
