"""Tests of the benchmark itself.  Run explicitly:

    python -m pytest bench/tests

(tier-1 ``testpaths`` stays ``tests/``).  The module-scoped ``quick``
fixture runs every workload once with ``--quick``; expect about a minute.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import harness  # noqa: E402
import metrics  # noqa: E402
from workloads import REGISTRY  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

#: the layer each workload is built to stress: largest ``<layer>.pycalls``
DOMINANT = {
    "ddp_vit_spec": "autograd",
    "hybrid_gpt_spec": "autograd",
    "collectives_spec": "comm",
    "collectives_observed": "sanitize",
    "zero_mlp_real": "autograd",
    "plan_compile_project": "autopar",
    "serve_open_sweep": "serve",
    "serve_closed_tightkv": "serve",
}


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One ``--quick`` report run over every workload."""
    out = tmp_path_factory.mktemp("bench")
    result, traces = out / "quick.json", out / "traces"
    proc = run_bench("--quick", "--seed", "1", "--out", str(result),
                     "--trace-out", str(traces))
    with open(result) as f:
        doc = json.load(f)
    return {"proc": proc, "doc": doc, "run": doc["runs"][0],
            "traces": traces}


@pytest.fixture(scope="module")
def manifest():
    return metrics.load_manifest()


# -- the manifest against the contract's limits -----------------------------------

def test_manifest_is_well_formed(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["bench"]
    assert manifest["command"] == ["python3", "bench/run.py"]
    assert 1 <= manifest["run_seconds"] <= 60
    assert [w["name"] for w in manifest["workloads"]] == list(REGISTRY)
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = []
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in manifest["end_to_end"])


def test_every_layer_has_its_two_metrics(manifest):
    names = {m["name"] for m in manifest["per_layer"]}
    for layer in harness.LAYERS:
        assert {f"{layer}.pycalls", f"{layer}.self_share"} <= names
    # the report's end-to-end metrics are all in the manifest
    table = metrics.Table(manifest)
    for name in metrics.E2E_ORDER:
        assert table.unit(name) and table.better(name)


# -- the quick smoke run ------------------------------------------------------------

def test_quick_run_passes_every_check(quick):
    assert quick["proc"].returncode == 0, quick["proc"].stdout[-2000:]
    assert quick["doc"]["comparable"] is False
    assert "NOT comparable" in quick["proc"].stdout
    assert list(quick["run"]) == list(REGISTRY)
    for name, res in quick["run"].items():
        assert res["checks"]["attempted"] > 0
        assert res["checks"]["failed"] == 0, (name, res["checks"])
        assert res["e2e"]["ops_failed_share"] == 0.0
        assert res["iterations"] >= 2


def test_every_manifest_name_is_printed(quick, manifest):
    printed = set(re.findall(r"^  (\S+)\s+\S+\s+\S+$", quick["proc"].stdout,
                             re.M))
    wanted = {m["name"]
              for m in manifest["end_to_end"] + manifest["per_layer"]}
    assert wanted <= printed, sorted(wanted - printed)
    assert all(NAME.match(n) for n in printed)
    # and nothing is printed that the manifest does not name
    assert printed <= wanted, sorted(printed - wanted)


def test_each_workload_reports_its_end_to_end_metrics(quick):
    common = {"setup_s", "host_iter_cu", "host_pycalls_per_iter",
              "host_peak_rss_mb", "ops_failed_share"}
    extra = {
        "ddp_vit_spec": {"sim_step_s", "sim_peak_mem_bytes"},
        "hybrid_gpt_spec": {"sim_step_s", "sim_peak_mem_bytes"},
        "collectives_spec": {"sim_step_s"},
        "collectives_observed": {"sim_step_s"},
        "zero_mlp_real": {"sim_step_s", "sim_peak_mem_bytes"},
        "plan_compile_project": {"sim_step_s", "model_rel_err"},
        "serve_open_sweep": {"sim_goodput_tok_s", "sim_ttft_p50_s",
                             "sim_ttft_p99_s", "sim_tpot_p99_s",
                             "sim_max_rate_slo"},
        "serve_closed_tightkv": {"sim_goodput_tok_s", "sim_ttft_p99_s",
                                 "sim_tpot_p99_s"},
    }
    for name, res in quick["run"].items():
        assert set(res["e2e"]) == common | extra[name], name
        assert set(res["e2e"]) <= set(metrics.E2E_ORDER)


def test_dominant_layer_and_call_accounting(quick):
    for name, res in quick["run"].items():
        calls = {layer: res["per_layer"][f"{layer}.pycalls"]
                 for layer in harness.LAYERS}
        assert max(calls, key=calls.get) == DOMINANT[name], (name, calls)
        total = res["e2e"]["host_pycalls_per_iter"]
        # the remainder is calls into packages outside the 15 layers
        assert 0 <= total - sum(calls.values()) <= 0.01 * total
        shares = sum(res["per_layer"][f"{layer}.self_share"]
                     for layer in harness.LAYERS)
        assert 0.98 <= shares <= 1.0 + 1e-9


def test_observed_storm_keeps_simulated_time(quick):
    run = quick["run"]
    assert (run["collectives_observed"]["e2e"]["sim_step_s"]
            == run["collectives_spec"]["e2e"]["sim_step_s"])
    layers = run["collectives_observed"]["per_layer"]
    assert layers["sanitize.rounds_checked"] > 0
    assert layers["trace.overhead_ratio"] > 1.0
    assert layers["sanitize.overhead_ratio"] > 1.0


def test_traces_hold_bench_spans_and_program_events(quick):
    for name in REGISTRY:
        with open(quick["traces"] / f"{name}.trace.json") as f:
            events = json.load(f)["traceEvents"]
        bench = [e for e in events if e.get("pid") == 0 and e["ph"] == "X"]
        assert bench[0]["name"] == "iteration"
        assert bench[0]["args"]["parent"] == -1
        assert all(e["args"]["workload"] == name for e in bench)
        assert any(e["args"]["parent"] == 0 for e in bench[1:])
        assert any(e.get("pid") == 1 for e in events), name


# -- seeds ----------------------------------------------------------------------------

def _sim(res):
    return {k: v for k, v in res["e2e"].items()
            if k.startswith("sim_") or k == "model_rel_err"}


def test_seed_decides_the_inputs(quick, tmp_path):
    for name in ("serve_closed_tightkv", "zero_mlp_real"):
        docs = {}
        for seed in (1, 2):
            out = tmp_path / f"{name}-{seed}.json"
            proc = run_bench("--quick", "--workload", name, "--seed",
                             str(seed), "--out", str(out))
            assert proc.returncode == 0
            with open(out) as f:
                docs[seed] = json.load(f)["runs"][0][name]
        assert _sim(docs[1]) == _sim(quick["run"][name]), name
        if name.startswith("serve"):
            # different seed, different traffic
            assert _sim(docs[2]) != _sim(docs[1])
            assert (docs[2]["per_layer"]["serve.steps"]
                    != docs[1]["per_layer"]["serve.steps"])


# -- independence from the old harness ---------------------------------------------

def test_bench_imports_nothing_from_benchmarks():
    banned = re.compile(
        r"^\s*(?:from|import)\s+(benchmarks|run_bench|wallclock|vit_harness)\b",
        re.M)
    for folder, _, files in os.walk(BENCH):
        for fn in files:
            if fn.endswith(".py"):
                with open(os.path.join(folder, fn)) as f:
                    assert not banned.search(f.read()), fn


# -- the instruments ------------------------------------------------------------------

def test_layer_classification():
    src = os.path.join(harness.SRC_DIR, "repro")
    assert harness._layer_of(os.path.join(src, "comm", "group.py")) == "comm"
    assert harness._layer_of(
        os.path.join(src, "parallel", "pipeline", "schedule.py")) == "parallel"
    assert harness._layer_of(os.path.join(src, "config.py")) == harness.OTHER
    assert harness._layer_of(os.path.join(src, "optim", "adam.py")) == harness.OTHER
    assert harness._layer_of(__file__) is None


def test_span_self_time_subtracts_children():
    spans = harness.Spans("w", 3)
    with spans.span("outer", "a"):
        with spans.span("inner", "b"):
            pass
        with spans.span("inner", "b"):
            pass
    outer, first, second = spans.rows
    assert first["parent"] == second["parent"] == 0 and outer["parent"] == -1
    inner = spans.total("inner")
    events = spans.chrome_events()
    assert events[0]["args"]["self_us"] == pytest.approx(
        (outer["t1"] - outer["t0"] - inner) * 1e6)
    assert events[1]["args"]["self_us"] == pytest.approx(events[1]["dur"])
    assert {e["args"]["iteration"] for e in events} == {3}


# -- compare.py -------------------------------------------------------------------------

def _doc(**workloads):
    """A result set; each metric maps to one value per run."""
    n = len(next(iter(next(iter(workloads.values())).values())))
    return {"comparable": True, "runs": [
        {w: {"e2e": {m: vals[i] for m, vals in ms.items()}}
         for w, ms in workloads.items()}
        for i in range(n)]}


def test_compare_verdicts():
    table = metrics.Table()
    base = _doc(w={"host_iter_cu": [10.0, 10.1, 9.9, 10.0],
                   "host_pycalls_per_iter": [1000, 1000, 1001, 1000],
                   "sim_step_s": [0.5] * 4, "sim_goodput_tok_s": [100.0] * 4,
                   "ops_failed_share": [0.0] * 4})
    new = _doc(w={"host_iter_cu": [15.0, 15.1, 14.9, 15.0],
                  "host_pycalls_per_iter": [900, 900, 901, 900],
                  "sim_step_s": [0.5] * 4, "sim_goodput_tok_s": [99.0] * 4,
                  "ops_failed_share": [0.0] * 4})
    got = {r["metric"]: r["verdict"]
           for r in compare.compare(base, new, table)}
    assert got == {"host_iter_cu": "regressed",
                   "host_pycalls_per_iter": "improved",
                   "sim_step_s": "unchanged",
                   "sim_goodput_tok_s": "regressed",  # higher is better
                   "ops_failed_share": "unchanged"}
    noisy = _doc(w={"host_iter_cu": [8.0, 10.0, 12.0, 14.0]})
    rows = compare.compare(base, noisy, table)
    assert [r["verdict"] for r in rows] == ["unresolved"]


def test_compare_exit_codes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_doc(w={"ops_failed_share": [0.0],
                                    "host_iter_cu": [10.0]})))
    b.write_text(json.dumps(_doc(w={"ops_failed_share": [0.1],
                                    "host_iter_cu": [10.2]})))
    script = os.path.join(BENCH, "compare.py")
    same = subprocess.run([sys.executable, script, str(a), str(a)],
                          stdout=subprocess.PIPE, text=True)
    assert same.returncode == 0 and "unchanged" in same.stdout
    worse = subprocess.run([sys.executable, script, str(a), str(b)],
                           stdout=subprocess.PIPE, text=True)
    assert worse.returncode == 1 and "regressed" in worse.stdout
