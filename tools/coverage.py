"""List the statements of `src/shiftflow` that a pytest run never runs.

    python3 tools/coverage.py [PYTEST_ARG ...]

The arguments go to pytest as they are (default: `tests src/shiftflow`,
the suite's own test paths).  Pytest runs in this process under a
`sys.settrace` line tracer that records, for each module of
`src/shiftflow`, the lines that ran; no other code is traced.  A
statement is a line of the module's syntax tree where a statement
starts, if the compiled module holds code for it (docstrings and `else:`
hold none); a line event anywhere inside a statement, and not inside a
statement nested in it, counts for that statement.  Per module it prints
the statement count, the missed count and the missed statements' first
lines, runs of missed statements with no statement between them that ran
joined as `a-b`.  Last come the tests that failed.  Tracing slows the
suite about 4x, so tests with a wall-clock budget can fail; the tool
lists them and does not judge them.  It exits with pytest's status.
Stdlib and pytest only; the `coverage` package is not needed.
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "shiftflow"


def _owners(tree: ast.Module) -> dict[int, int]:
    """Each line's statement: the first line of the innermost statement
    whose lines hold it.  `ast.walk` visits outer statements first, so
    the inner ones overwrite them."""
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            for line in range(node.lineno, node.end_lineno + 1):
                owner[line] = node.lineno
    return owner


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines that hold bytecode in this code object and those nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _statements(path: Path) -> tuple[dict[int, int], set[int]]:
    """The line-to-statement map of a module and its statements that hold code."""
    source = path.read_text(encoding="utf-8")
    owner = _owners(ast.parse(source))
    code = compile(source, str(path), "exec")
    return owner, {owner[line] for line in _code_lines(code) if line in owner}


def _runs(missed: set[int], statements: list[int]) -> str:
    """The missed lines as `a-b` runs over the ordered statements."""
    out: list[list[int]] = []
    last = -2
    for k, line in enumerate(statements):
        if line in missed:
            if last == k - 1:
                out[-1][1] = line
            else:
                out.append([line, line])
            last = k
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


class _Failures:
    """A pytest plugin that keeps the ids of failed tests."""

    def __init__(self) -> None:
        self.ids: list[str] = []

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.ids.append(f"{report.nodeid} ({report.when})")


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def tracer(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    tracers = {name: tracer(lines) for name, lines in ran.items()}
    seen: dict[str, object] = {}  # co_filename -> its module's tracer, or None

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = tracers.get(str(Path(name).resolve()))
        return seen[name]

    failures = _Failures()
    sys.settrace(call)
    try:
        status = pytest.main(argv or ["tests", "src/shiftflow"], plugins=[failures])
    finally:
        sys.settrace(None)
    total = total_missed = 0
    print(f"\n{'module':<18}  {'stmts':>5}  {'miss':>5}  missed statements")
    for name, path in files.items():
        owner, statements = _statements(path)
        done = {owner[line] for line in ran[name] if line in owner}
        missed = statements - done
        total, total_missed = total + len(statements), total_missed + len(missed)
        print(f"{path.name:<18}  {len(statements):>5}  {len(missed):>5}  {_runs(missed, sorted(statements))}")
    print(f"{'total':<18}  {total:>5}  {total_missed:>5}")
    print(f"pytest exit status {int(status)}; failed: {len(failures.ids)}")
    for nodeid in failures.ids:
        print(f"  {nodeid}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
