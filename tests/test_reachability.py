"""The tail stays cut: a top-level ``def`` / ``class`` under ``src/repro`` is named
somewhere besides its own definition and ``__init__`` re-exports - in ``src/``,
``examples/``, ``benchmarks/`` or ``bench/`` - or sits under a ``tools/keep.py`` row
saying why it stays.  ``ast`` only; who *reaches* what is ``tools/census.py`` (DESIGN §4p)."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from keep import KEEP, kept_by  # noqa: E402


def _names(tree, imports):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and imports:
            yield from (a.name for a in node.names)


def test_every_top_level_definition_is_named_or_kept():
    src = ROOT / "src" / "repro"
    trees = {p: ast.parse(p.read_text()) for d in ("src", "examples", "benchmarks", "bench")
             for p in (ROOT / d).rglob("*.py")}
    # names per top-level statement; an ``__init__``'s ``from .x import y`` re-exports, it is no use
    mentions = {(p, i): set(_names(stmt, p.name != "__init__.py"))
                for p, tree in trees.items() for i, stmt in enumerate(tree.body)}
    orphans = sorted(
        f"{p.relative_to(src)}::{node.name}"
        for p, tree in trees.items() if p.is_relative_to(src)
        for i, node in enumerate(tree.body)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in names for at, names in mentions.items() if at != (p, i))
        and not kept_by(str(p.relative_to(src)), node.name))
    assert not orphans, f"named nowhere outside tests: delete, or add a tools/keep.py row with the reason: {orphans}"
    assert all(reason.strip() for reason in KEEP.values())


def test_comm_path_reaches_observers_only_through_lifecycle_hooks():
    """The rendezvous and the communicator name no observer: whatever takes part in a
    round or a message - fault injector, sanitizer, capture, tracer - is one of the
    runtime's ``on_<event>`` hooks (DESIGN §4u), so the seam cannot regrow by hand."""
    for name in ("group.py", "communicator.py"):
        tree = ast.parse((ROOT / "src" / "repro" / "comm" / name).read_text())
        reads = sorted(f"{name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and node.attr in ("sanitizer", "tracer", "capture", "fault_injector"))
        assert not reads, reads


def test_serving_drives_the_replica_without_rank_threads():
    """The replica is one loop over turns on the caller's thread (``SpmdRuntime.drive``):
    ``serve/`` imports no ``threading`` and launches no rank program - its one ``.run(``
    call is ``serve_traffic`` running its own engine."""
    for p in (ROOT / "src" / "repro" / "serve").rglob("*.py"):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Import):
                assert "threading" not in {a.name for a in node.names}, p.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "threading", p.name
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "run"):
                assert ast.unparse(node.func) == "engine.run", f"{p.name}:{node.lineno}"


def _assigns_pure(node):
    return isinstance(node, ast.Assign) and any(
        getattr(t, "id", getattr(t, "attr", None)) == "PURE" for t in node.targets)


def test_pure_ops_draw_nothing_and_talk_to_no_one():
    """``PURE = True`` (DESIGN §4r) promises that ``forward`` / ``backward`` are functions of
    the op's signature.  It is declared in the class body, in ``autograd/ops.py`` only, and a
    body that reads the rank context, an RNG or a communicator, or builds a ``Tensor``, cannot
    carry it - so copying an op does not copy a promise the copy breaks."""
    src = ROOT / "src" / "repro"
    pure = []
    for p in src.rglob("*.py"):
        where = str(p.relative_to(src))
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.ClassDef):
                flags = [s.value.value for s in node.body if _assigns_pure(s)]
                if flags == [True]:
                    assert where == "autograd/ops.py", f"{where}::{node.name} declares PURE"
                    pure.append(node)
                else:
                    assert flags == [] or (where, node.name) == ("autograd/function.py", "Function")
            elif _assigns_pure(node):  # ``SomeOp.PURE = True`` from the outside
                assert where in ("autograd/ops.py", "autograd/function.py"), where
    assert len(pure) > 15
    for cls in pure:
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in ("forward", "backward"):
                for node in ast.walk(fn):
                    call = node.func if isinstance(node, ast.Call) else None
                    impure = (
                        isinstance(node, ast.Name) and node.id == "rank_context"
                        or isinstance(node, ast.Attribute) and node.attr in ("rng", "comm")
                        or isinstance(call, ast.Name) and call.id == "Tensor"
                        or isinstance(call, ast.Attribute) and call.attr == "_wrap")
                    assert not impure, f"{cls.name}.{fn.name} line {node.lineno}: not pure"


def test_every_config_field_is_read():
    """A config field nothing reads is a promise the system does not keep.  A field
    counts as read when its attribute name is loaded as ``.name`` anywhere in
    ``src/repro``; the check matches names only, so a same-named attribute of any other
    object also counts.  A new field that nothing reads fails here."""
    from repro.config import FIELDS

    loaded = {node.attr for p in (ROOT / "src" / "repro").rglob("*.py")
              for node in ast.walk(ast.parse(p.read_text()))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert {f.key for f in FIELDS if f.name not in loaded} == set()


def test_drivers_define_no_module():
    """The model is built by ``repro.models`` / ``repro.nn`` (``build_gpt``, ``Sequential``),
    never rewritten by a driver: no class in ``examples/`` or ``benchmarks/`` has a
    ``Module`` base.  ``bench/`` is frozen by ``BENCHMARK.json`` with four copies; that
    set may only shrink."""
    def modules(d):
        return {node.name for p in (ROOT / d).rglob("*.py")
                for node in ast.walk(ast.parse(p.read_text()))
                if isinstance(node, ast.ClassDef)
                and any(getattr(b, "id", getattr(b, "attr", None)) in ("Module", "ModuleList", "Sequential")
                        for b in node.bases)}

    assert modules("examples") | modules("benchmarks") == set()
    assert modules("bench") <= {"_Block", "_VitStack", "_GptStage", "_Stage"}


def test_only_the_cost_model_reads_alpha_and_ramp():
    """Every closed form has one owner: no module under ``src/repro`` besides
    ``comm/cost.py`` (the formulas) and ``project/fabric.py`` (the stand-in
    cluster it prices) reads a cluster's ``alpha`` or ``bw_ramp_time``, by
    attribute or by ``getattr``.  A probe or a planner asks ``CostModel``."""
    src = ROOT / "src" / "repro"
    owners = {"comm/cost.py", "project/fabric.py"}
    knobs = ("alpha", "bw_ramp_time")

    def reads(node):
        if isinstance(node, ast.Attribute):
            return isinstance(node.ctx, ast.Load) and node.attr in knobs
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                and len(node.args) > 1 and getattr(node.args[1], "value", None) in knobs)

    readers = sorted({rel for p in src.rglob("*.py") if (rel := p.relative_to(src).as_posix()) not in owners
                      for node in ast.walk(ast.parse(p.read_text())) if reads(node)})
    assert readers == [], f"read alpha / bw_ramp_time outside the cost model: {readers}"
