"""The examples that build their model from ``repro.models`` / ``repro.nn`` run to the
end.  Each asserts its own invariant (serial loss equals pipeline loss, recorded replay
equals capture, the bubble is positive), so exit 0 is the check.  They run in a
temporary directory, which keeps the files they write out of the tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "pipeline_hybrid", "overlap_ddp", "project_1024_ranks", "project_hybrid_512",
    "trace_pipeline",
])
def test_example_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "examples" / f"{name}.py")],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
