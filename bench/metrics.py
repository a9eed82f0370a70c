"""Metric names, units, directions and bounds.

``BENCHMARK.json`` (one directory up) is the single table: this module
only reads it and adds the two facts it cannot express — which metrics are
end-to-end in the benchmark's own report, and which are deterministic.

The driver contract wants every ``end_to_end`` metric on every workload,
never 0, and steady across seeds.  Only the four host-clock metrics meet
that, so the manifest lists those as ``end_to_end``; the simulated-clock
end-to-end metrics are workload specific (and, for serving, seed
specific), so they ride in its ``per_layer`` list and are compared
*exactly* by ``compare.py`` instead of against a bound.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

_MANIFEST_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")

#: the report's end-to-end metrics, in print order
E2E_ORDER = (
    "setup_s", "host_iter_cu", "host_pycalls_per_iter", "host_peak_rss_mb",
    "sim_step_s", "sim_peak_mem_bytes", "sim_goodput_tok_s",
    "sim_ttft_p50_s", "sim_ttft_p99_s", "sim_tpot_p99_s",
    "sim_max_rate_slo", "model_rel_err", "ops_failed_share",
)

#: relative difference below which two deterministic readings are equal
EXACT_REL = 1e-9


def load_manifest() -> Dict[str, Any]:
    with open(_MANIFEST_PATH) as f:
        return json.load(f)


class Table:
    """Lookup of unit / direction / bound by metric name."""

    def __init__(self, manifest: Optional[Dict[str, Any]] = None) -> None:
        self.manifest = manifest or load_manifest()
        self.host_e2e = {m["name"]: m for m in self.manifest["end_to_end"]}
        self.per_layer = {m["name"]: m for m in self.manifest["per_layer"]}

    def _row(self, name: str) -> Dict[str, Any]:
        return self.host_e2e.get(name) or self.per_layer[name]

    def unit(self, name: str) -> str:
        return self._row(name)["unit"]

    def better(self, name: str) -> str:
        return self._row(name)["better"]

    def bound(self, name: str) -> float:
        """Share of the base by which ``name`` may worsen.  Host-clock
        metrics carry the manifest's bound; everything else end-to-end is
        deterministic (simulated clock, or the failure share) and may not
        worsen at all."""
        row = self.host_e2e.get(name)
        return row["bound"] if row else 0.0

    def is_exact(self, name: str) -> bool:
        return name not in self.host_e2e
