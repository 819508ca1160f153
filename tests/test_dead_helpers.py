"""Every private helper in src/shiftflow is used somewhere in src/shiftflow.

A `def _name` or `class _Name` counts as used when a `Name` or an
`Attribute` with that name appears in the package outside the helper's
own definition.  Uses from tests alone do not count.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "shiftflow"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_unused_private_helpers():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert "presentations.py" in trees
    defs = [
        (module, node)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _is_private(node.name)
    ]
    refs: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(node)
    unused = []
    for module, node in defs:
        own = {id(n) for n in ast.walk(node)}
        if not any(id(ref) not in own for ref in refs.get(node.name, [])):
            unused.append(f"{module}:{node.lineno} {node.name}")
    assert not unused, "private helpers nothing in src/shiftflow uses: " + ", ".join(unused)
