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
