"""Every ``from repro… import X`` outside tier-1 still resolves.

``bench/`` is frozen and measured after merge, ``benchmarks/`` is a slow
lane and ``examples/`` and the README run by hand — so a renamed or dropped
name they import would otherwise show up as a red benchmark, not a red
test.  ``ast`` only: nothing here runs the importing code.
"""

import ast
import re
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sources():
    for pattern in ("bench/**/*.py", "benchmarks/*.py", "examples/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            yield str(path.relative_to(ROOT)), path.read_text()
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md python block {i + 1}", block


def _repro_imports():
    for where, text in _sources():
        for node in ast.walk(ast.parse(text)):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module.split(".")[0] == "repro"
            ):
                for alias in node.names:
                    yield where, node.module, alias.name


def _resolves(module: str, name: str) -> bool:
    if hasattr(import_module(module), name):
        return True
    try:  # ``from package import submodule``
        import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_repro_import_outside_tier1_resolves():
    imports = list(_repro_imports())
    assert len(imports) > 100, "the scan no longer finds the scripts"
    broken = [
        f"{where}: from {module} import {name}"
        for where, module, name in imports
        if not _resolves(module, name)
    ]
    assert not broken, "\n".join(broken)
    # and every export list names things that exist: a deleted definition left
    # in an ``__all__`` is a red run here, not an ImportError in a user's script
    for init in sorted((ROOT / "src" / "repro").rglob("__init__.py")):
        package = ".".join(init.relative_to(ROOT / "src").parts[:-1])
        module = import_module(package)
        missing = [n for n in getattr(module, "__all__", ()) if not _resolves(package, n)]
        assert not missing, f"{package}.__all__ names {missing}"
