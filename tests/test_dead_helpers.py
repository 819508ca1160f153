"""Every private helper in src/shiftflow is used somewhere in src/shiftflow,
every name a module imports is used in that module, and every exported
function is named in some test.

A `def _name`, a `class _Name` or a module-level `_NAME = ...` counts as
used when a `Name` or an `Attribute` with that name appears in the
package outside the helper's own definition.  Uses from tests alone do
not count.
"""
from __future__ import annotations

import ast
import inspect
from pathlib import Path

import shiftflow

SRC = Path(__file__).resolve().parent.parent / "src" / "shiftflow"
TESTS = Path(__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _module_constants(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, statement) for each name a top-level assignment binds."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        out += [(t.id, node) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return out


def test_no_unused_private_helpers():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert "presentations.py" in trees
    defs = [
        (module, node.name, node)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _is_private(node.name)
    ]
    defs += [
        (module, name, node)
        for module, tree in trees.items()
        for name, node in _module_constants(tree)
        if _is_private(name)
    ]
    assert any(name == "_PARSERS" for _, name, _ in defs)
    refs: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(node)
    unused = []
    for module, name, node in defs:
        own = {id(n) for n in ast.walk(node)}
        if not any(id(ref) not in own for ref in refs.get(name, [])):
            unused.append(f"{module}:{node.lineno} {name}")
    assert not unused, "private helpers nothing in src/shiftflow uses: " + ", ".join(unused)


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) for each name an import statement binds,
    `from __future__` imports left out."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    return out


def test_no_unused_imports():
    """`__init__.py` is exempt: its imports are the package's re-exports."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree) if name not in used]
    assert not unused, "imports their module never uses: " + ", ".join(unused)


def test_every_exported_function_is_named_in_a_test():
    """A function in `shiftflow.__all__` counts as tested when a test file
    imports it or uses it as a `Name` or an `Attribute`."""
    named: set[str] = set()
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    functions = [name for name in shiftflow.__all__ if inspect.isfunction(getattr(shiftflow, name))]
    assert "contains_word" in functions
    untested = [name for name in functions if name not in named]
    assert not untested, "exported functions no test names: " + ", ".join(untested)
