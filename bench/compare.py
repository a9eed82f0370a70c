"""Compare two result sets written by ``run.py --out``.

    python bench/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two sets of runs of
one commit), ``B`` the candidate.  One row per workload x end-to-end
metric: both medians with their quartiles over the runs in each file, the
change as a share of the base, the bound and a verdict:

* deterministic metrics (simulated clock, ``ops_failed_share``) are
  compared exactly: any difference is ``improved`` or ``regressed``;
* host-clock metrics are compared against their ``BENCHMARK.json`` bound:
  ``regressed`` / ``improved`` when the median moved by more than the
  bound, ``unchanged`` otherwise, and ``unresolved`` when either side's
  own spread (quartile distance over median) is wider than the bound, so
  the runs cannot tell.

Exits 1 on any ``regressed`` row (a larger ``ops_failed_share`` is one),
2 on unusable input.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a single run is its own
    quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spread(q: Tuple[float, float, float]) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def verdict(name: str, a: Sequence[float], b: Sequence[float],
            table: metrics.Table) -> Dict[str, Any]:
    qa, qb = quartiles(a), quartiles(b)
    base, new = qa[1], qb[1]
    scale = abs(base) if base else 1.0
    change = (new - base) / scale
    worse = change if table.better(name) == "lower" else -change
    bound = table.bound(name)
    if table.is_exact(name):
        if abs(change) <= metrics.EXACT_REL:
            word = "unchanged"
        else:
            word = "regressed" if worse > 0 else "improved"
    elif max(_spread(qa), _spread(qb)) > bound:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    elif worse < -bound:
        word = "improved"
    else:
        word = "unchanged"
    return {"a": qa, "b": qb, "base": base, "change": change,
            "bound": bound, "verdict": word}


def _values(doc: Dict[str, Any], workload: str, name: str) -> List[float]:
    return [run[workload]["e2e"][name] for run in doc["runs"]
            if workload in run and name in run[workload]["e2e"]]


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any],
            table: metrics.Table) -> List[Dict[str, Any]]:
    rows = []
    workloads = [w for w in doc_a["runs"][0] if w in doc_b["runs"][0]]
    for workload in workloads:
        for name in metrics.E2E_ORDER:
            a = _values(doc_a, workload, name)
            b = _values(doc_b, workload, name)
            if a and b:
                row = verdict(name, a, b, table)
                row.update(workload=workload, metric=name,
                           unit=table.unit(name), runs=(len(a), len(b)))
                rows.append(row)
    return rows


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as f:
            docs.append(json.load(f))
        if not docs[-1].get("comparable", True):
            print(f"warning: {path} is a --quick result; its host metrics "
                  "are not comparable with a full run")
    rows = compare(docs[0], docs[1], metrics.Table())
    if not rows:
        print("no workload is in both files", file=sys.stderr)
        return 2
    print(f"{'workload':22s} {'metric':22s} {'unit':6s} "
          f"{'A median [q1, q3]':38s} {'B median [q1, q3]':38s} "
          f"{'base':>12s} {'change':>9s} {'bound':>7s}  verdict")
    for r in rows:
        print(f"{r['workload']:22s} {r['metric']:22s} {r['unit']:6s} "
              f"{_fmt(r['a']):38s} {_fmt(r['b']):38s} "
              f"{r['base']:12.6g} {r['change']:+9.2%} {r['bound']:7.2%}  "
              f"{r['verdict']}")
    counts: Dict[str, int] = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    print(f"\nruns per side: A {rows[0]['runs'][0]}, B {rows[0]['runs'][1]}; "
          + ", ".join(f"{n} {word}" for word, n in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
