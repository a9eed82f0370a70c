"""The startup contract (DESIGN §4ac): a process imports only the layers it runs.

``import repro`` binds the public names lazily (PEP 562), so a fresh
interpreter that imports the package loads no layer, and one that reaches
``repro.launch`` loads the engine's layers and not the compiler, serving,
projection, sanitizer or fault layers.  Each check starts its own
interpreter with ``PYTHONPATH=src``: this test process has imported most
of the package already.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: layers a training launch never runs
UNUSED_BY_LAUNCH = ("autopar", "serve", "project", "sanitize", "faults")


def _fresh(code: str):
    """Run ``code`` in a new interpreter; return what it prints as JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True, timeout=120).stdout
    return json.loads(out)


_LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"


def test_import_repro_loads_the_package_alone():
    assert _fresh(f"import json, sys\nimport repro\n{_LOADED}") == ["repro"]


def test_launch_loads_no_layer_a_training_run_skips():
    loaded = _fresh(f"import json, sys\nimport repro\nrepro.launch\n{_LOADED}")
    assert "repro.engine" in loaded
    assert {m.split(".")[1] for m in loaded if "." in m} & set(UNUSED_BY_LAUNCH) == set()


def test_every_export_is_its_home_modules_object():
    import repro

    assert set(repro.__all__) == {*repro._EXPORTS, "__version__"} <= set(dir(repro))
    for name, home in repro._EXPORTS.items():
        assert getattr(repro, name) is getattr(import_module(home), name), name


def test_dir_star_import_and_subpackages_resolve_lazily():
    got = _fresh(
        "import json\n"
        "import repro\n"
        "listed = dir(repro)\n"
        "ns = {}\n"
        "exec('from repro import *', ns)\n"
        "print(json.dumps({'dir': listed, 'star': sorted(set(ns) - {'__builtins__'}),\n"
        "                  'all': repro.__all__, 'cluster': repro.cluster.system_i().name,\n"
        "                  'missing': hasattr(repro, 'no_such_layer')}))")
    assert "__all__" in got["dir"] and set(got["all"]) <= set(got["dir"])
    assert got["star"] == sorted(got["all"])
    assert got["cluster"] == "system-i"
    assert got["missing"] is False


def test_first_access_from_many_threads_binds_each_name_once():
    """Sixteen threads reach every export and layer for the first time at
    once, each in its own order, with a short switch interval: all of them
    get one object per name, and none sees a half-imported module."""
    got = _fresh(
        "import json, sys, threading\n"
        "sys.setswitchinterval(1e-6)\n"
        "import repro\n"
        "names = [*repro._EXPORTS, 'cluster', 'models', 'zero', 'optim', 'project', 'autopar',\n"
        "         'serve', 'trace', 'sanitize', 'faults', 'analytic', 'trainer', 'data', 'amp']\n"
        "seen, errors = [], []\n"
        "start = threading.Barrier(16)\n"
        "def reach(i):\n"
        "    start.wait()\n"
        "    try:\n"
        "        got = {n: getattr(repro, n) for n in names[i:] + names[:i]}\n"
        "        seen.append(tuple(id(got[n]) for n in names))\n"
        "    except Exception as err:\n"
        "        errors.append(repr(err))\n"
        "threads = [threading.Thread(target=reach, args=(i,)) for i in range(16)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(60)\n"
        "print(json.dumps({'alive': any(t.is_alive() for t in threads), 'errors': errors,\n"
        "                  'bindings': len(set(seen)), 'threads': len(seen)}))")
    assert got == {"alive": False, "errors": [], "bindings": 1, "threads": 16}
